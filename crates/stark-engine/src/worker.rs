//! Worker-side runtime: executes plan fragments received over one TCP
//! connection to the driver.
//!
//! A worker is deliberately fail-stop: any transport decode error (torn
//! frame, checksum mismatch, unknown message) terminates the serve loop
//! with an error, and the binary wrapper exits non-zero. The driver sees
//! a connection loss and recovers through its single worker-loss path —
//! there is no in-worker repair, matching the crash-only model the
//! supervision layer is built around.
//!
//! Concurrency inside a worker is two threads: the main loop reads task
//! frames and executes them; a heartbeat thread pushes
//! [`WorkerMsg::Heartbeat`] every 25 ms, the pool's fixed cadence (also
//! while a task is executing, so a long task is distinguishable from a
//! dead process).
//! Both share the write half of the socket behind a mutex, and every
//! control-plus-payload pair is sent under one lock so frames never
//! interleave.

use crate::fault::FaultPlan;
use crate::plan::{ExecEnv, PlanError, PlanFragment, SchemaExecutor, TaskResult};
use crate::shuffle::{FetchConfig, ShuffleEnv};
use crate::storage::ObjectStore;
use crate::supervisor::HEARTBEAT_INTERVAL;
use crate::transport::{recv_msg, recv_payload, send_msg, write_frame, DriverMsg, WorkerMsg};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Bound on connecting to the driver: an unreachable or half-up driver
/// must fail the worker fast instead of hanging the spawn handshake.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// A worker's executable surface: one [`SchemaExecutor`] per row schema.
#[derive(Default)]
pub struct WorkerRuntime {
    executors: HashMap<String, Box<dyn SchemaExecutor>>,
}

impl WorkerRuntime {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an executor under its schema name (replacing any
    /// previous one).
    pub fn register(&mut self, exec: Box<dyn SchemaExecutor>) {
        self.executors.insert(exec.schema().to_string(), exec);
    }

    /// The schema names this worker can execute, sorted.
    pub fn schemas(&self) -> Vec<String> {
        let mut s: Vec<String> = self.executors.keys().cloned().collect();
        s.sort();
        s
    }

    fn execute(
        &self,
        fragment: &PlanFragment,
        payload: Option<&[u8]>,
        env: &ExecEnv<'_>,
    ) -> Result<TaskResult, PlanError> {
        let exec =
            self.executors.get(&fragment.schema).ok_or_else(|| PlanError::SchemaMismatch {
                expected: self.schemas().join(","),
                got: fragment.schema.clone(),
            })?;
        exec.execute_env(fragment, payload, env)
    }

    /// Connects to the driver at `addr` (the connect is bounded by a
    /// 10 s timeout) and serves until drained or the connection fails.
    pub fn run(
        &self,
        addr: &str,
        worker_id: usize,
        store_root: Option<&Path>,
        faults: Option<Arc<FaultPlan>>,
    ) -> io::Result<()> {
        let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unresolvable driver address {addr:?}"),
            )
        })?;
        let stream = TcpStream::connect_timeout(&sock, CONNECT_TIMEOUT)?;
        self.serve(stream, worker_id, store_root, faults)
    }

    /// Serves the worker protocol over an established connection. Used
    /// directly by in-process tests; the binaries call [`Self::run`].
    /// `faults` holds the fetch rules this worker's shuffle server obeys.
    pub fn serve(
        &self,
        stream: TcpStream,
        worker_id: usize,
        store_root: Option<&Path>,
        faults: Option<Arc<FaultPlan>>,
    ) -> io::Result<()> {
        stream.set_nodelay(true).ok();
        let store = match store_root {
            Some(root) => Some(ObjectStore::open(root).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidInput, format!("open store: {e}"))
            })?),
            None => None,
        };

        // Remote-shuffle half: this worker's in-memory buckets, served
        // on a fresh port.
        let shuffle = ShuffleEnv::with_config(FetchConfig::default(), faults);
        let shuffle_port = shuffle.serve().unwrap_or(0);

        let writer = Arc::new(Mutex::new(stream.try_clone()?));
        let mut reader = BufReader::new(stream);

        {
            let mut w = writer.lock().unwrap();
            send_msg(
                &mut *w,
                &WorkerMsg::Hello {
                    worker_id,
                    pid: std::process::id(),
                    schemas: self.schemas(),
                    shuffle_port,
                },
            )?;
        }

        // Heartbeat thread: pushes liveness on a fixed cadence until the
        // serve loop ends. `busy` reflects whether a task is in flight.
        let stop = Arc::new(AtomicBool::new(false));
        let busy = Arc::new(AtomicBool::new(false));
        let hb_handle = {
            let writer = writer.clone();
            let stop = stop.clone();
            let busy = busy.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(HEARTBEAT_INTERVAL);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let msg = WorkerMsg::Heartbeat { busy: busy.load(Ordering::Relaxed) };
                    let mut w = writer.lock().unwrap();
                    if send_msg(&mut *w, &msg).is_err() {
                        break; // driver is gone; the main loop will notice too
                    }
                }
            })
        };

        let result = self.serve_loop(&mut reader, &writer, &busy, store.as_ref(), &shuffle);
        stop.store(true, Ordering::Relaxed);
        let _ = hb_handle.join();
        result
        // `shuffle` drops here, stopping the bucket server and freeing
        // the buckets
    }

    fn serve_loop(
        &self,
        reader: &mut BufReader<TcpStream>,
        writer: &Arc<Mutex<TcpStream>>,
        busy: &AtomicBool,
        store: Option<&ObjectStore>,
        shuffle: &ShuffleEnv,
    ) -> io::Result<()> {
        loop {
            let Some(msg) = recv_msg::<DriverMsg>(reader)? else {
                return Ok(()); // driver hung up cleanly
            };
            match msg {
                DriverMsg::Ping { seq } => {
                    let mut w = writer.lock().unwrap();
                    send_msg(&mut *w, &WorkerMsg::Pong { seq })?;
                }
                DriverMsg::ReleaseShuffle { prefix } => {
                    shuffle.release(&prefix);
                }
                DriverMsg::Drain => return Ok(()),
                DriverMsg::Task { id, attempt: _, fragment, has_payload } => {
                    let payload = if has_payload { Some(recv_payload(reader)?) } else { None };
                    busy.store(true, Ordering::Relaxed);
                    let started = Instant::now();
                    // A panicking op must not take the worker down with a
                    // useless abort — it becomes a typed task failure and
                    // the worker lives on (the fail-stop rule is for
                    // *transport* faults, not task bugs).
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let env = ExecEnv { store, shuffle: Some(shuffle) };
                        self.execute(&fragment, payload.as_deref(), &env)
                    }));
                    busy.store(false, Ordering::Relaxed);
                    let micros = started.elapsed().as_micros() as u64;
                    // drain this task's fetch effort exactly once so the
                    // driver's counters stay attributable per task
                    let (fetch_retries, fetch_bytes) = shuffle.take_counters();
                    let reply = match outcome {
                        Ok(Ok(result)) => {
                            let mut w = writer.lock().unwrap();
                            send_msg(
                                &mut *w,
                                &WorkerMsg::TaskOk {
                                    id,
                                    output: result.output.clone(),
                                    micros,
                                    fetch_retries,
                                    fetch_bytes,
                                },
                            )?;
                            if let Some(rows) = &result.payload {
                                write_frame(&mut *w, rows)?;
                            }
                            continue;
                        }
                        Ok(Err(e)) => {
                            let fetch = match &e {
                                PlanError::FetchFailed(f) => Some(f.clone()),
                                _ => None,
                            };
                            WorkerMsg::TaskErr {
                                id,
                                message: e.to_string(),
                                retryable: crate::plan::is_retryable(&e),
                                fetch_retries,
                                fetch,
                            }
                        }
                        Err(panic) => WorkerMsg::TaskErr {
                            id,
                            message: format!("task panicked: {}", panic_message(&panic)),
                            retryable: true,
                            fetch_retries,
                            fetch: None,
                        },
                    };
                    let mut w = writer.lock().unwrap();
                    send_msg(&mut *w, &reply)?;
                }
            }
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Command-line surface shared by the worker binaries:
///
/// ```text
/// <bin> --addr 127.0.0.1:PORT --id N [--store DIR] [--faults JSON]
/// ```
///
/// `--faults` carries the pool's fetch fault rules; a value that does
/// not decode is an `InvalidInput` error, never a silently clean run.
pub fn run_from_args(
    runtime: &WorkerRuntime,
    args: impl Iterator<Item = String>,
) -> io::Result<()> {
    let mut addr: Option<String> = None;
    let mut id: Option<usize> = None;
    let mut store: Option<PathBuf> = None;
    let mut faults = None;

    let bad = |m: String| io::Error::new(io::ErrorKind::InvalidInput, m);
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| bad(format!("{flag} needs a value")));
        match flag.as_str() {
            "--addr" => addr = Some(value()?),
            "--id" => id = Some(value()?.parse().map_err(|e| bad(format!("--id: {e}")))?),
            "--store" => store = Some(PathBuf::from(value()?)),
            "--faults" => {
                let plan = FaultPlan::from_fetch_arg(&value()?)
                    .map_err(|e| bad(format!("--faults: {e}")))?;
                faults = Some(Arc::new(plan));
            }
            other => return Err(bad(format!("unknown flag {other:?}"))),
        }
    }
    let addr = addr.ok_or_else(|| bad("missing --addr".into()))?;
    let id = id.ok_or_else(|| bad("missing --id".into()))?;
    runtime.run(&addr, id, store.as_deref(), faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{encode_rows, int_registry, PlanInput, PlanSink, TaskOutput};
    use serde_json::Value;
    use std::io::Write as _;
    use std::net::TcpListener;

    fn int_runtime() -> WorkerRuntime {
        let mut rt = WorkerRuntime::new();
        rt.register(Box::new(int_registry()));
        rt
    }

    /// Serves one in-process worker over a real TCP socketpair and
    /// returns the driver-side stream plus the serve-thread handle.
    fn spawn_worker() -> (TcpStream, std::thread::JoinHandle<io::Result<()>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let rt = int_runtime();
            let stream = TcpStream::connect(addr).unwrap();
            rt.serve(stream, 0, None, None)
        });
        let (driver_side, _) = listener.accept().unwrap();
        (driver_side, handle)
    }

    /// Waits for the worker's Hello; returns its shuffle port.
    fn expect_hello(r: &mut BufReader<TcpStream>) -> u16 {
        loop {
            match recv_msg::<WorkerMsg>(r).unwrap().expect("worker alive") {
                WorkerMsg::Hello { schemas, shuffle_port, .. } => {
                    assert_eq!(schemas, vec!["i64".to_string()]);
                    return shuffle_port;
                }
                WorkerMsg::Heartbeat { .. } => continue,
                other => panic!("expected Hello, got {other:?}"),
            }
        }
    }

    /// Skips heartbeats, returning the next non-heartbeat message.
    fn next_msg(r: &mut BufReader<TcpStream>) -> WorkerMsg {
        loop {
            match recv_msg::<WorkerMsg>(r).unwrap().expect("worker alive") {
                WorkerMsg::Heartbeat { .. } => continue,
                other => return other,
            }
        }
    }

    #[test]
    fn executes_a_task_and_ships_rows_back() {
        let (stream, handle) = spawn_worker();
        let mut w = stream.try_clone().unwrap();
        let mut r = BufReader::new(stream);
        expect_hello(&mut r);

        let fragment = PlanFragment {
            schema: "i64".into(),
            input: PlanInput::Inline,
            ops: vec![crate::plan::PlanOp::Map {
                op: "add".into(),
                arg: crate::plan::int_arg("k", 10),
            }],
            sink: PlanSink::Collect,
        };
        send_msg(&mut w, &DriverMsg::Task { id: 1, attempt: 0, fragment, has_payload: true })
            .unwrap();
        write_frame(&mut w, &encode_rows(&[1i64, 2, 3]).unwrap()).unwrap();

        match next_msg(&mut r) {
            WorkerMsg::TaskOk { id: 1, output: TaskOutput::Rows { rows: 3, .. }, .. } => {
                let payload = recv_payload(&mut r).unwrap();
                let rows: Vec<i64> = crate::plan::decode_rows(&payload).unwrap();
                assert_eq!(rows, vec![11, 12, 13]);
            }
            other => panic!("expected TaskOk+rows, got {other:?}"),
        }

        send_msg(&mut w, &DriverMsg::Drain).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn heartbeats_flow_and_ping_pongs() {
        let (stream, handle) = spawn_worker();
        let mut w = stream.try_clone().unwrap();
        let mut r = BufReader::new(stream);
        expect_hello(&mut r);

        // at the 25ms cadence a heartbeat must arrive well inside a second
        let mut saw_heartbeat = false;
        send_msg(&mut w, &DriverMsg::Ping { seq: 42 }).unwrap();
        loop {
            match recv_msg::<WorkerMsg>(&mut r).unwrap().expect("worker alive") {
                WorkerMsg::Heartbeat { .. } => saw_heartbeat = true,
                WorkerMsg::Pong { seq } => {
                    assert_eq!(seq, 42);
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // wait for at least one heartbeat if the pong won the race
        while !saw_heartbeat {
            if let WorkerMsg::Heartbeat { .. } =
                recv_msg::<WorkerMsg>(&mut r).unwrap().expect("worker alive")
            {
                saw_heartbeat = true;
            }
        }
        send_msg(&mut w, &DriverMsg::Drain).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn unknown_op_fails_the_task_not_the_worker() {
        let (stream, handle) = spawn_worker();
        let mut w = stream.try_clone().unwrap();
        let mut r = BufReader::new(stream);
        expect_hello(&mut r);

        let fragment = PlanFragment {
            schema: "i64".into(),
            input: PlanInput::Inline,
            ops: vec![crate::plan::PlanOp::Map { op: "missing".into(), arg: Value::Null }],
            sink: PlanSink::Count,
        };
        send_msg(&mut w, &DriverMsg::Task { id: 5, attempt: 0, fragment, has_payload: true })
            .unwrap();
        write_frame(&mut w, &encode_rows(&[1i64]).unwrap()).unwrap();
        match next_msg(&mut r) {
            WorkerMsg::TaskErr { id: 5, retryable, message, .. } => {
                assert!(!retryable, "unknown op is deterministic: {message}");
            }
            other => panic!("expected TaskErr, got {other:?}"),
        }

        // the worker survives and still executes the next task
        let ok = PlanFragment {
            schema: "i64".into(),
            input: PlanInput::Inline,
            ops: vec![],
            sink: PlanSink::Count,
        };
        send_msg(&mut w, &DriverMsg::Task { id: 6, attempt: 0, fragment: ok, has_payload: true })
            .unwrap();
        write_frame(&mut w, &encode_rows(&[1i64, 2]).unwrap()).unwrap();
        match next_msg(&mut r) {
            WorkerMsg::TaskOk { id: 6, output: TaskOutput::Count(2), .. } => {}
            other => panic!("expected TaskOk count, got {other:?}"),
        }
        send_msg(&mut w, &DriverMsg::Drain).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn release_shuffle_drops_only_that_stage_s_buckets() {
        let (stream, handle) = spawn_worker();
        let mut w = stream.try_clone().unwrap();
        let mut r = BufReader::new(stream);
        let port = expect_hello(&mut r);

        for (id, prefix) in [(1, "rs/a"), (2, "rs/b")] {
            let fragment = PlanFragment {
                schema: "i64".into(),
                input: PlanInput::Inline,
                ops: vec![],
                sink: PlanSink::ShuffleWriteLocal {
                    partitioner: "mod".into(),
                    arg: crate::plan::int_arg("parts", 2),
                    num_partitions: 2,
                    prefix: prefix.into(),
                    task: 0,
                    epoch: 0,
                },
            };
            send_msg(&mut w, &DriverMsg::Task { id, attempt: 0, fragment, has_payload: true })
                .unwrap();
            write_frame(&mut w, &encode_rows(&[1i64, 2, 3, 4]).unwrap()).unwrap();
            match next_msg(&mut r) {
                WorkerMsg::TaskOk { output: TaskOutput::BucketCounts(counts), .. } => {
                    assert_eq!(counts, vec![2, 2]);
                }
                other => panic!("expected bucket counts, got {other:?}"),
            }
        }
        send_msg(&mut w, &DriverMsg::ReleaseShuffle { prefix: "rs/a".into() }).unwrap();
        // the worker reads its connection in order: once the pong is
        // back, the release has been handled
        send_msg(&mut w, &DriverMsg::Ping { seq: 1 }).unwrap();
        assert_eq!(next_msg(&mut r), WorkerMsg::Pong { seq: 1 });

        let cfg = crate::shuffle::FetchConfig { max_retries: 0, ..Default::default() };
        let client = ShuffleEnv::with_config(cfg, None);
        let addr = format!("127.0.0.1:{port}");
        let key = |prefix| crate::plan::shuffle_bucket_key(prefix, 0, 0);
        let err = client.fetch(&addr, &key("rs/a"), 0).unwrap_err();
        assert!(err.reason.contains("not registered"), "{err}");
        let kept = client.fetch(&addr, &key("rs/b"), 0).unwrap();
        assert_eq!(crate::plan::decode_rows::<i64>(&kept).unwrap(), vec![2, 4]);

        send_msg(&mut w, &DriverMsg::Drain).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn torn_frame_fail_stops_the_worker() {
        let (stream, handle) = spawn_worker();
        let mut w = stream.try_clone().unwrap();
        let mut r = BufReader::new(stream);
        expect_hello(&mut r);

        // declare a 100-byte payload but send garbage with a bad magic:
        // the worker must reject and die, not guess
        w.write_all(&100u32.to_le_bytes()).unwrap();
        w.write_all(b"JUNK").unwrap();
        w.write_all(&[0u8; 104]).unwrap();
        w.flush().unwrap();
        let err = handle.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn malformed_faults_argument_is_rejected_before_connecting() {
        // nothing listens on port 1: reaching the connect would be a
        // different error, so the rejection must come from parsing
        let dispatch_rule = (0u64, vec![crate::FaultRule::once(crate::Fault::KillWorker)]);
        for spec in ["not json".to_string(), serde_json::to_string(&dispatch_rule).unwrap()] {
            let args = ["--addr", "127.0.0.1:1", "--id", "0", "--faults", &spec];
            let err = run_from_args(&int_runtime(), args.into_iter().map(String::from))
                .expect_err("a malformed --faults must not start a clean worker");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
            assert!(err.to_string().contains("--faults"), "{err}");
        }
        // the heartbeat cadence is a constant, not a flag
        let args = ["--addr", "127.0.0.1:1", "--id", "0", "--heartbeat-ms", "25"];
        let err = run_from_args(&int_runtime(), args.into_iter().map(String::from))
            .expect_err("--heartbeat-ms must not start a worker");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("unknown flag \"--heartbeat-ms\""), "{err}");
    }
}
