//! Peer-to-peer remote shuffle: per-worker bucket serving and fetching.
//!
//! Under [`ShuffleMode::Remote`](crate::supervisor::ShuffleMode) each
//! worker keeps its map outputs in memory and serves them over its own
//! **shuffle port**. Reducers fetch buckets directly from the producing
//! worker instead of reading a shared directory — the layout a real
//! cluster needs, where no common filesystem exists. A stage's buckets
//! live until the driver releases them (`WorkerPool::run_shuffle` does
//! so when the stage ends) or the worker exits.
//!
//! The fetch protocol is one STK1-framed request/response pair followed
//! by a *raw* byte stream:
//!
//! ```text
//! client → server   frame { Bucket { key, epoch, offset } }
//! server → client   frame { Bucket { len, crc } }  |  NotFound  |
//!                   StaleEpoch { have }            |  Refused
//! server → client   raw bytes payload[offset..]    (only after Bucket)
//! ```
//!
//! A connection carries any number of such exchanges: the client keeps
//! one idle connection per peer and reuses it for the next bucket, and
//! the server hangs up on a peer that stays silent for `read_timeout`.
//!
//! The payload intentionally travels *unframed*: a torn transfer leaves
//! the client holding a usable prefix, and the next attempt resumes from
//! `offset = bytes held` instead of refetching everything. Integrity
//! comes from the whole-payload CRC32 announced in the response header
//! (computed once, when the bucket is put), verified once the assembled
//! buffer is complete — a flipped byte discards the buffer and restarts
//! from offset 0.
//!
//! Every bucket carries a **shuffle epoch**. Map outputs regenerated
//! after a worker loss register at a bumped epoch, and the server rejects
//! requests whose epoch does not match its registration
//! (a `StaleEpoch` answer) — a reducer built against a superseded
//! registry snapshot fails fast instead of consuming half-dead data.
//!
//! Failure handling is layered: connect/read timeouts bound every
//! blocking call, capped retries with jittered exponential backoff
//! absorb transient faults, and only then does a typed [`FetchFailure`]
//! escalate to the driver, which treats it as a lost-map-output signal
//! (see `WorkerPool::run_shuffle`).

use crate::fault::{splitmix64, Fault, FaultPlan, Site};
use crate::storage::{crc32, StorageError, MAX_BLOB_LEN};
use crate::transport::{recv_msg, send_msg};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Wire types
// ---------------------------------------------------------------------------

/// One bucket a reduce task must fetch: where it lives, its key, and the
/// shuffle epoch it was registered under.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct FetchSource {
    /// Shuffle address of the producing worker (`host:port`).
    pub addr: String,
    /// Bucket key on the producer.
    pub key: String,
    /// Epoch the driver's registry holds for this output.
    pub epoch: u64,
}

/// A fetch that exhausted its retry budget (or was rejected as stale),
/// reported by the worker inside `TaskErr` so the driver can run
/// lost-output recovery instead of blind task retry.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct FetchFailure {
    pub addr: String,
    pub key: String,
    pub epoch: u64,
    /// The server holds a different epoch for this key — the reducer's
    /// source list is outdated, not the output lost.
    pub stale: bool,
    pub reason: String,
}

impl std::fmt::Display for FetchFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fetch of {:?} (epoch {}) from {} failed: {}",
            self.key, self.epoch, self.addr, self.reason
        )
    }
}

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
enum FetchReq {
    Bucket { key: String, epoch: u64, offset: u64 },
}

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
enum FetchRsp {
    /// The payload's total length and whole-payload CRC32; the bytes from
    /// the requested offset follow raw.
    Bucket {
        len: u64,
        crc: u32,
    },
    NotFound,
    StaleEpoch {
        have: u64,
    },
    Refused,
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Client/server knobs of the remote-shuffle data plane.
#[derive(Debug, Clone)]
pub struct FetchConfig {
    /// Bound on establishing a connection to a peer.
    pub connect_timeout: Duration,
    /// Bound on every blocking read (both sides): a hung peer surfaces
    /// as a timeout error, never a wedged thread. The server also hangs
    /// up on a connection idle for this long.
    pub read_timeout: Duration,
    /// Re-attempts after the first failed fetch of a bucket.
    pub max_retries: u32,
    /// Base retry backoff; doubled per attempt and jittered into
    /// `[0.5, 1.5)`.
    pub backoff_base: Duration,
    /// Seed for the backoff jitter.
    pub seed: u64,
}

impl Default for FetchConfig {
    fn default() -> Self {
        FetchConfig {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(5),
            max_retries: 4,
            backoff_base: Duration::from_millis(10),
            seed: 0xFE7C,
        }
    }
}

// ---------------------------------------------------------------------------
// Shuffle environment
// ---------------------------------------------------------------------------

/// A worker's shuffle half: the in-memory buckets it serves, each
/// registered under an epoch, and the fetch client reducers on this
/// worker use to pull peers' buckets.
///
/// Shared (`Arc`) between the executing thread and the bucket server.
/// The server's threads hold only [`Weak`] references, so dropping every
/// strong handle stops the server, closes its port and frees the
/// buckets.
pub struct ShuffleEnv {
    /// Served buckets by key.
    buckets: Mutex<HashMap<String, Bucket>>,
    /// One idle connection per peer address, reused by the next fetch.
    conns: Mutex<HashMap<String, Conn>>,
    /// Accept threads started by [`Self::serve`], with their ports. A
    /// thread is `None` once a test has taken its handle.
    acceptors: Mutex<Vec<(u16, Option<JoinHandle<()>>)>>,
    cfg: FetchConfig,
    /// Fault plan whose fetch rules strike this server's answers.
    faults: Option<Arc<FaultPlan>>,
    fetch_retries: AtomicU64,
    bytes_fetched: AtomicU64,
    rng: AtomicU64,
}

/// A served map-output bucket; requests must match `epoch` exactly.
#[derive(Clone)]
struct Bucket {
    epoch: u64,
    /// CRC32 of `data`, taken once at put.
    crc: u32,
    data: Arc<[u8]>,
}

/// A fetch client's connection to one peer.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ShuffleEnv {
    /// Creates an empty shuffle environment.
    pub fn with_config(cfg: FetchConfig, faults: Option<Arc<FaultPlan>>) -> Arc<ShuffleEnv> {
        Arc::new(ShuffleEnv {
            buckets: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            acceptors: Mutex::new(Vec::new()),
            rng: AtomicU64::new(splitmix64(cfg.seed ^ 0x5A17_F00D)),
            cfg,
            faults,
            fetch_retries: AtomicU64::new(0),
            bytes_fetched: AtomicU64::new(0),
        })
    }

    /// Same as [`Self::with_config`]. `root` is unused — buckets live in
    /// memory — and the call never fails; the signature is kept only for
    /// the benchmark's layer adapter (`bench/src/layers.rs`), which calls
    /// it.
    pub fn new(
        _root: impl AsRef<Path>,
        cfg: FetchConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> Result<Arc<ShuffleEnv>, StorageError> {
        Ok(Self::with_config(cfg, faults))
    }

    /// Stores a map-output bucket and registers it under `epoch`,
    /// replacing any bucket under the same key.
    pub fn put_bucket(&self, key: &str, epoch: u64, data: &[u8]) -> Result<(), StorageError> {
        if data.len() > MAX_BLOB_LEN {
            return Err(StorageError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("bucket {key:?}: payload {} exceeds blob cap {MAX_BLOB_LEN}", data.len()),
            )));
        }
        let bucket = Bucket { epoch, crc: crc32(data), data: Arc::from(data) };
        self.buckets.lock().unwrap().insert(key.to_string(), bucket);
        Ok(())
    }

    /// Drops every bucket whose key lies under `{prefix}/`; returns how
    /// many were dropped.
    pub fn release(&self, prefix: &str) -> usize {
        let mut buckets = self.buckets.lock().unwrap();
        let before = buckets.len();
        buckets
            .retain(|key, _| !key.strip_prefix(prefix).is_some_and(|rest| rest.starts_with('/')));
        before - buckets.len()
    }

    /// Swaps out and returns the per-task fetch counters
    /// `(retries, bytes_fetched)` accumulated since the last call.
    pub fn take_counters(&self) -> (u64, u64) {
        (
            self.fetch_retries.swap(0, Ordering::Relaxed),
            self.bytes_fetched.swap(0, Ordering::Relaxed),
        )
    }

    /// Binds the shuffle port and starts a blocking accept thread, one
    /// handler thread per connection. Returns the bound port. Dropping
    /// the last strong `Arc` wakes the accept thread, which then exits
    /// and closes the port.
    pub fn serve(self: &Arc<Self>) -> io::Result<u16> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let port = listener.local_addr()?.port();
        let weak: Weak<ShuffleEnv> = Arc::downgrade(self);
        let timeout = self.cfg.read_timeout;
        let acceptor =
            std::thread::Builder::new().name(format!("shuffle-{port}")).spawn(move || {
                for stream in listener.incoming() {
                    // the env is gone: this was `Drop`'s wake-up call
                    if weak.strong_count() == 0 {
                        return;
                    }
                    let Ok(stream) = stream else { return };
                    let weak = weak.clone();
                    // named, or it would inherit this thread's name
                    let _ =
                        std::thread::Builder::new().name("shuffle-conn".into()).spawn(move || {
                            let _ = serve_conn(&weak, stream, timeout);
                        });
                }
            })?;
        self.acceptors.lock().unwrap().push((port, Some(acceptor)));
        Ok(port)
    }

    /// Takes the handles of this env's accept threads, so a test can
    /// watch *these* threads end after the drop. `Drop` still wakes
    /// each one through its port.
    #[cfg(test)]
    fn take_accept_threads(&self) -> Vec<JoinHandle<()>> {
        self.acceptors.lock().unwrap().iter_mut().filter_map(|(_, t)| t.take()).collect()
    }

    /// Answers one fetch request. `Ok(false)` means hang up (an injected
    /// fault tore the transfer).
    fn answer(&self, w: &mut TcpStream, key: &str, epoch: u64, offset: u64) -> io::Result<bool> {
        let found = self.buckets.lock().unwrap().get(key).cloned();
        let bucket = match found {
            None => return send_msg(w, &FetchRsp::NotFound).map(|()| true),
            Some(b) if b.epoch != epoch => {
                return send_msg(w, &FetchRsp::StaleEpoch { have: b.epoch }).map(|()| true)
            }
            Some(b) => b,
        };
        // The epoch is the attempt, so regenerated outputs serve cleanly;
        // the key's CRC makes a seeded draw vary per bucket.
        let crc = || u64::from(crc32(key.as_bytes()));
        let fault =
            self.faults.as_deref().and_then(|p| p.strike(Site::Fetch, 0, crc(), key, epoch));
        match fault {
            Some(Fault::KillServingWorker) => {
                // fail-stop: the worker (and all its map outputs)
                // vanishes mid-shuffle
                std::process::exit(1);
            }
            Some(Fault::RefuseFetch) => return send_msg(w, &FetchRsp::Refused).map(|()| true),
            Some(Fault::DelayFetch(d)) => std::thread::sleep(d),
            _ => {}
        }
        let data = &bucket.data[..];
        let off = (offset as usize).min(data.len());
        send_msg(w, &FetchRsp::Bucket { len: data.len() as u64, crc: bucket.crc })?;
        match fault {
            Some(Fault::DropBucket) => {
                // torn transfer: half the remaining bytes, then hang up —
                // the client resumes from its new offset
                w.write_all(&data[off..off + (data.len() - off) / 2])?;
                return Ok(false);
            }
            Some(Fault::CorruptBucket) => {
                // full-length transfer, one byte flipped after the CRC
                // was announced — the client must reject it
                let mut sent = data[off..].to_vec();
                if !sent.is_empty() {
                    let mid = sent.len() / 2;
                    sent[mid] ^= 0x40;
                }
                w.write_all(&sent)?;
            }
            _ => w.write_all(&data[off..])?,
        }
        w.flush()?;
        Ok(true)
    }

    /// Fetches one bucket from a peer, with bounded timeouts, capped
    /// jittered retries and partial-fetch resume. A stale-epoch rejection
    /// escalates immediately (retrying cannot help); everything else
    /// retries until the budget is spent.
    pub fn fetch(&self, addr: &str, key: &str, epoch: u64) -> Result<Vec<u8>, FetchFailure> {
        let mut buf: Vec<u8> = Vec::new();
        let mut last = String::from("never attempted");
        let attempts = self.cfg.max_retries + 1;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.fetch_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.jittered_backoff(attempt - 1));
            }
            match self.try_fetch(addr, key, epoch, &mut buf) {
                Ok(()) => {
                    self.bytes_fetched.fetch_add(buf.len() as u64, Ordering::Relaxed);
                    return Ok(buf);
                }
                Err(AttemptError::Stale { have }) => {
                    return Err(FetchFailure {
                        addr: addr.to_string(),
                        key: key.to_string(),
                        epoch,
                        stale: true,
                        reason: format!("stale epoch (server has {have})"),
                    });
                }
                Err(AttemptError::Transient(reason)) => last = reason,
            }
        }
        Err(FetchFailure {
            addr: addr.to_string(),
            key: key.to_string(),
            epoch,
            stale: false,
            reason: format!("{attempts} attempts exhausted; last: {last}"),
        })
    }

    /// One fetch attempt. Received bytes accumulate into `buf` (the
    /// resume state); a checksum mismatch clears it. The peer's pooled
    /// connection is used if there is one, and pooled again only after a
    /// clean transfer — any error drops it.
    fn try_fetch(
        &self,
        addr: &str,
        key: &str,
        epoch: u64,
        buf: &mut Vec<u8>,
    ) -> Result<(), AttemptError> {
        let io_err = |e: io::Error| AttemptError::Transient(e.to_string());
        let req = FetchReq::Bucket { key: key.to_string(), epoch, offset: buf.len() as u64 };
        let pooled = self.conns.lock().unwrap().remove(addr);
        let mut reused = None;
        if let Some(mut conn) = pooled {
            // `None`: the server had already closed this connection (it
            // hangs up on idle peers) and never saw the request, so it is
            // re-sent once on a fresh connection and costs no retry
            reused = conn.request(&req).map_err(io_err)?.map(|rsp| (conn, rsp));
        }
        let (mut conn, rsp) = match reused {
            Some(exchange) => exchange,
            None => {
                let mut conn = self.connect(addr)?;
                let rsp = conn.request(&req).map_err(io_err)?.ok_or_else(|| {
                    AttemptError::Transient("server hung up before responding".into())
                })?;
                (conn, rsp)
            }
        };
        let (len, crc) = match rsp {
            FetchRsp::Refused => return Err(AttemptError::Transient("fetch refused".into())),
            FetchRsp::NotFound => {
                return Err(AttemptError::Transient("bucket not registered on server".into()))
            }
            FetchRsp::StaleEpoch { have } => return Err(AttemptError::Stale { have }),
            FetchRsp::Bucket { len, crc } => (len as usize, crc),
        };
        if len > MAX_BLOB_LEN {
            return Err(AttemptError::Transient(format!(
                "announced bucket length {len} exceeds blob cap"
            )));
        }
        if buf.len() > len {
            // the server's view shrank; the resume state is junk
            buf.clear();
            return Err(AttemptError::Transient("resume offset past the bucket's end".into()));
        }
        let want = (len - buf.len()) as u64;
        let got = (&mut conn.reader).take(want).read_to_end(buf).map_err(io_err)?;
        if (got as u64) < want {
            return Err(AttemptError::Transient(format!(
                "connection closed mid-transfer at {}/{len} bytes",
                buf.len()
            )));
        }
        if crc32(buf) != crc {
            buf.clear();
            return Err(AttemptError::Transient("bucket checksum mismatch".into()));
        }
        self.conns.lock().unwrap().insert(addr.to_string(), conn);
        Ok(())
    }

    fn connect(&self, addr: &str) -> Result<Conn, AttemptError> {
        let io_err = |e: io::Error| AttemptError::Transient(e.to_string());
        let sock = addr
            .to_socket_addrs()
            .map_err(io_err)?
            .next()
            .ok_or_else(|| AttemptError::Transient(format!("unresolvable address {addr:?}")))?;
        let stream = TcpStream::connect_timeout(&sock, self.cfg.connect_timeout).map_err(io_err)?;
        stream.set_read_timeout(Some(self.cfg.read_timeout)).map_err(io_err)?;
        stream.set_write_timeout(Some(self.cfg.read_timeout)).map_err(io_err)?;
        stream.set_nodelay(true).ok();
        Ok(Conn { writer: stream.try_clone().map_err(io_err)?, reader: BufReader::new(stream) })
    }

    fn jittered_backoff(&self, exp: u32) -> Duration {
        let scaled = self.cfg.backoff_base * (1u32 << exp.min(6));
        let draw = splitmix64(self.rng.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed));
        let factor = 0.5 + (draw >> 11) as f64 / (1u64 << 53) as f64;
        scaled.mul_f64(factor)
    }
}

impl Drop for ShuffleEnv {
    fn drop(&mut self) {
        // Wake each accept thread blocked in `accept` by dialing its
        // port; it finds the env gone, exits and closes the listener.
        let acceptors = self.acceptors.get_mut().unwrap_or_else(PoisonError::into_inner);
        for (port, acceptor) in acceptors.drain(..) {
            let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
            if TcpStream::connect_timeout(&addr, self.cfg.connect_timeout).is_ok() {
                if let Some(acceptor) = acceptor {
                    let _ = acceptor.join();
                }
            }
        }
    }
}

/// Serves fetch requests on one connection until the peer hangs up, goes
/// idle past `timeout`, or the env is dropped. Holds the env only while
/// answering, so an idle peer cannot keep it alive.
fn serve_conn(env: &Weak<ShuffleEnv>, stream: TcpStream, timeout: Duration) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(timeout)).ok();
    stream.set_write_timeout(Some(timeout)).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    while let Some(FetchReq::Bucket { key, epoch, offset }) = recv_msg(&mut reader)? {
        let Some(env) = env.upgrade() else { return Ok(()) };
        if !env.answer(&mut writer, &key, epoch, offset)? {
            return Ok(());
        }
    }
    Ok(()) // clean hangup
}

impl Conn {
    /// Sends one request and reads the response header. `Ok(None)` means
    /// the peer had closed the connection: it hung up (EOF or reset)
    /// before sending a single response byte.
    fn request(&mut self, req: &FetchReq) -> io::Result<Option<FetchRsp>> {
        let hung_up = |e: &io::Error| {
            matches!(
                e.kind(),
                io::ErrorKind::BrokenPipe
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
            )
        };
        match send_msg(&mut self.writer, req) {
            Err(e) if hung_up(&e) => return Ok(None),
            sent => sent?,
        }
        let answered = match self.reader.fill_buf() {
            Ok(bytes) => !bytes.is_empty(),
            Err(e) if hung_up(&e) => false,
            Err(e) => return Err(e),
        };
        if !answered {
            return Ok(None);
        }
        let rsp = recv_msg(&mut self.reader)?;
        rsp.map(Some).ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server hung up mid-response")
        })
    }
}

enum AttemptError {
    /// Worth retrying (refused, torn, corrupt, timeout, unreachable).
    Transient(String),
    /// The server registered a different epoch — escalate immediately.
    Stale { have: u64 },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultRule, Scope};
    use std::time::Instant;

    fn test_cfg() -> FetchConfig {
        FetchConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(1000),
            max_retries: 4,
            backoff_base: Duration::from_millis(2),
            seed: 7,
        }
    }

    fn env_with(chaos: Option<FaultPlan>) -> Arc<ShuffleEnv> {
        ShuffleEnv::with_config(test_cfg(), chaos.map(Arc::new))
    }

    /// A plan striking the first `strikes` epoch-0 fetches with `fault`.
    fn strikes(fault: Fault, strikes: u64) -> FaultPlan {
        let rule = FaultRule::new(fault, Scope::Probability(1.0));
        FaultPlan::new(0, vec![FaultRule { strikes: Some(strikes), ..rule }])
    }

    fn addr(port: u16) -> String {
        format!("127.0.0.1:{port}")
    }

    #[test]
    fn put_serve_fetch_roundtrip() {
        let server = env_with(None);
        let data: Vec<u8> = (0..10_000u32).flat_map(|x| x.to_le_bytes()).collect();
        server.put_bucket("sh/task-00000/bucket-00001", 0, &data).unwrap();
        let port = server.serve().unwrap();

        let client = env_with(None);
        let got = client.fetch(&addr(port), "sh/task-00000/bucket-00001", 0).unwrap();
        assert_eq!(got, data);
        let (retries, bytes) = client.take_counters();
        assert_eq!(retries, 0, "clean fetch must not retry");
        assert_eq!(bytes, data.len() as u64);
    }

    #[test]
    fn one_pooled_connection_serves_consecutive_fetches() {
        let server = env_with(None);
        for b in 0..8 {
            server.put_bucket(&format!("sh/task-00000/bucket-{b:05}"), 0, &[b as u8; 300]).unwrap();
        }
        let port = server.serve().unwrap();
        let client = env_with(None);
        for b in 0..8 {
            let got = client.fetch(&addr(port), &format!("sh/task-00000/bucket-{b:05}"), 0);
            assert_eq!(got.unwrap(), vec![b as u8; 300]);
            assert_eq!(client.conns.lock().unwrap().len(), 1, "one connection per peer");
        }
        assert_eq!(client.take_counters().0, 0);
    }

    #[test]
    fn a_connection_the_server_closed_while_idle_is_replaced_without_a_retry() {
        let cfg = FetchConfig { read_timeout: Duration::from_millis(100), ..test_cfg() };
        let server = ShuffleEnv::with_config(cfg.clone(), None);
        server.put_bucket("sh/task-00000/bucket-00000", 0, b"first").unwrap();
        server.put_bucket("sh/task-00001/bucket-00000", 0, b"second").unwrap();
        let port = server.serve().unwrap();

        let client = ShuffleEnv::with_config(cfg, None);
        assert_eq!(client.fetch(&addr(port), "sh/task-00000/bucket-00000", 0).unwrap(), b"first");
        // the server hangs up on the pooled connection after 100 ms idle
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(client.fetch(&addr(port), "sh/task-00001/bucket-00000", 0).unwrap(), b"second");
        assert_eq!(client.take_counters().0, 0, "replacing a closed connection is not a retry");
    }

    #[test]
    fn stale_epoch_is_rejected_without_burning_retries() {
        let server = env_with(None);
        server.put_bucket("sh/task-00000/bucket-00000", 1, b"fresh").unwrap();
        let port = server.serve().unwrap();

        let client = env_with(None);
        let err = client.fetch(&addr(port), "sh/task-00000/bucket-00000", 0).unwrap_err();
        assert!(err.stale, "an epoch mismatch is a stale fetch: {err}");
        assert!(err.reason.contains("server has 1"), "{err}");
        assert_eq!(client.take_counters().0, 0, "stale escalates before any retry");
        // the matching epoch still serves
        assert_eq!(client.fetch(&addr(port), "sh/task-00000/bucket-00000", 1).unwrap(), b"fresh");
    }

    #[test]
    fn missing_bucket_exhausts_the_budget() {
        let server = env_with(None);
        let port = server.serve().unwrap();
        let client = env_with(None);
        let err = client.fetch(&addr(port), "sh/task-00000/bucket-00000", 0).unwrap_err();
        assert!(!err.stale);
        assert!(err.reason.contains("attempts exhausted"), "{err}");
        assert_eq!(client.take_counters().0, 4, "every re-attempt counts as a retry");
    }

    #[test]
    fn released_buckets_are_not_found() {
        let server = env_with(None);
        for key in ["sh/a/task-00000/bucket-00000", "sh/a/task-00001/bucket-00002", "sh/ab/x"] {
            server.put_bucket(key, 0, b"rows").unwrap();
        }
        let port = server.serve().unwrap();
        assert_eq!(server.release("sh/a"), 2, "only keys under `sh/a/` go");
        let client = ShuffleEnv::with_config(FetchConfig { max_retries: 0, ..test_cfg() }, None);
        let err = client.fetch(&addr(port), "sh/a/task-00000/bucket-00000", 0).unwrap_err();
        assert!(err.reason.contains("not registered"), "{err}");
        assert_eq!(client.fetch(&addr(port), "sh/ab/x", 0).unwrap(), b"rows");
    }

    #[test]
    fn buckets_above_the_blob_cap_are_rejected() {
        let env = env_with(None);
        // zeroed pages are never touched: the length check comes first
        let huge = vec![0u8; MAX_BLOB_LEN + 1];
        match env.put_bucket("sh/task-00000/bucket-00000", 0, &huge) {
            Err(StorageError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{e}"),
            other => panic!("expected an InvalidInput error, got {other:?}"),
        }
        assert!(env.buckets.lock().unwrap().is_empty());
    }

    #[test]
    fn dropping_the_env_closes_its_port_and_ends_its_accept_thread() {
        // Other tests bind ports concurrently and may take this one once
        // it is freed, so the test watches this env's own accept thread
        // (not a thread name or the port) and a key no other test serves.
        let key = "sh/dropped-env/task-00000/bucket-00000";
        let server = env_with(None);
        server.put_bucket(key, 0, b"rows").unwrap();
        let port = server.serve().unwrap();
        // an idle pooled peer connection must not keep the env alive
        let client = env_with(None);
        client.fetch(&addr(port), key, 0).unwrap();
        let accept_threads = server.take_accept_threads();
        assert_eq!(accept_threads.len(), 1);
        let name = format!("shuffle-{port}");
        assert_eq!(accept_threads[0].thread().name(), Some(name.as_str()), "serve names it");
        assert!(!accept_threads[0].is_finished(), "the accept thread runs while the env lives");
        drop(server);

        // the accept thread owns the listener: once it has returned, the
        // port is closed
        let deadline = Instant::now() + Duration::from_secs(1);
        while !accept_threads[0].is_finished() {
            assert!(Instant::now() < deadline, "the accept thread outlived its env");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(client.fetch(&addr(port), key, 0).is_err(), "a dropped env served a fetch");
    }

    #[test]
    fn torn_transfers_resume_from_the_received_offset() {
        let server = env_with(Some(strikes(Fault::DropBucket, 2)));
        let data: Vec<u8> = (0..50_000u32).map(|x| x as u8).collect();
        server.put_bucket("sh/task-00000/bucket-00000", 0, &data).unwrap();
        let port = server.serve().unwrap();

        let client = env_with(None);
        let got = client.fetch(&addr(port), "sh/task-00000/bucket-00000", 0).unwrap();
        assert_eq!(got, data, "resumed assembly must be byte-identical");
        assert_eq!(client.take_counters().0, 2, "each torn transfer costs one retry");
    }

    #[test]
    fn corrupt_transfers_are_rejected_and_refetched() {
        let server = env_with(Some(FaultPlan::once(Fault::CorruptBucket)));
        let data = vec![0x5Au8; 9000];
        server.put_bucket("sh/task-00000/bucket-00000", 0, &data).unwrap();
        let port = server.serve().unwrap();

        let client = env_with(None);
        let got = client.fetch(&addr(port), "sh/task-00000/bucket-00000", 0).unwrap();
        assert_eq!(got, data);
        assert_eq!(client.take_counters().0, 1);
    }

    #[test]
    fn refused_fetches_retry_until_the_policy_exhausts() {
        let server = env_with(Some(strikes(Fault::RefuseFetch, 3)));
        server.put_bucket("sh/task-00000/bucket-00000", 0, b"payload").unwrap();
        let port = server.serve().unwrap();

        let client = env_with(None);
        let got = client.fetch(&addr(port), "sh/task-00000/bucket-00000", 0).unwrap();
        assert_eq!(got, b"payload");
        assert_eq!(client.take_counters().0, 3);
    }

    #[test]
    fn unreachable_peer_fails_with_bounded_attempts() {
        let client = env_with(None);
        // a port nothing listens on: every connect is refused promptly
        let err = client.fetch("127.0.0.1:1", "sh/task-00000/bucket-00000", 0).unwrap_err();
        assert!(!err.stale);
        assert_eq!(client.take_counters().0, 4);
    }
}
