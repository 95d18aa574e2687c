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
//! A reduce task names every bucket it needs ([`ShuffleEnv::fetch_all`]).
//! The buckets its own worker holds are read from memory; the rest go
//! out as **one request per peer**, naming every bucket wanted from that
//! peer. The request and the response header are binary STK1 frames
//! (the `serde::bin` form); the payloads follow *raw*, in request order:
//!
//! ```text
//! client → server   frame { FetchReq [ {key, epoch, offset} × n ] }
//! server → client   frame { FetchRsp [ answer × m ] }   m ≤ n
//!                     answer = Bucket { len, crc } | NotFound |
//!                              StaleEpoch { have } | Refused
//! server → client   raw payload[offset..] of each `Bucket` answer, in order
//! ```
//!
//! A connection carries any number of such exchanges: the client keeps
//! one idle connection per peer and reuses it for the next request, and
//! the server hangs up on a peer that stays silent for `read_timeout`.
//!
//! A **local read** runs the very same answer path into a buffer instead
//! of a socket and parses it with the very same reader: the epoch check,
//! the fetch-site [`FaultPlan`] strike and the CRC verify all apply, so a
//! fault struck on a local read costs a retry exactly as a remote one
//! does, and a [`Fault::KillServingWorker`] still kills the producer.
//! Only bytes that crossed a socket count as fetched.
//!
//! The payloads intentionally travel *unframed*: a torn transfer leaves
//! the client holding every bucket that completed before the tear plus a
//! usable prefix of the torn one. The server stops answering at the torn
//! bucket (`m < n`), and the next attempt asks again only for the
//! buckets still missing, each resuming from `offset = bytes held`:
//!
//! ```text
//! attempt 1   want a@0 b@0 c@0   →  a ✓   b torn at 40/80   (hang-up)
//! attempt 2   want b@40 c@0      →  b ✓   c ✓
//! ```
//!
//! Integrity comes from each bucket's whole-payload CRC32 announced in
//! the header (computed once, when the bucket is put), verified once the
//! bucket's bytes are complete — a flipped byte discards that bucket and
//! restarts it from offset 0. Every struck bucket (refused, torn,
//! corrupt, missing) costs exactly one retry; a bucket the server never
//! reached costs none.
//!
//! Every bucket carries a **shuffle epoch**. Map outputs regenerated
//! after a worker loss register at a bumped epoch, and the server rejects
//! requests whose epoch does not match its registration
//! (a `StaleEpoch` answer) — a reducer built against a superseded
//! registry snapshot fails fast instead of consuming half-dead data.
//!
//! Failure handling is layered: connect/read timeouts bound every
//! blocking call, capped per-bucket retries with jittered exponential
//! backoff absorb transient faults, and only then does a typed
//! [`FetchFailure`] escalate to the driver, which treats it as a
//! lost-map-output signal (see `WorkerPool::run_shuffle`).

use crate::fault::{splitmix64, Fault, FaultPlan, Site};
use crate::storage::{crc32, StorageError, MAX_BLOB_LEN};
use crate::transport::{read_frame, write_frame};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
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

/// One bucket named in a [`FetchReq`]: its key, the epoch the reducer
/// expects, and how many of its bytes the reducer already holds.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
struct Want {
    key: String,
    epoch: u64,
    offset: u64,
}

/// A request for every bucket a reducer still needs from one peer.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
struct FetchReq {
    buckets: Vec<Want>,
}

/// The answer to one [`Want`], in request order.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
enum Answer {
    /// The bucket's total length and whole-payload CRC32; its bytes from
    /// the requested offset follow raw, after the header.
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

/// The response header: answers to a prefix of the request's buckets.
/// Fewer answers than wants means the server hung up after the last one.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
struct FetchRsp {
    answers: Vec<Answer>,
}

fn decode_req(frame: &[u8]) -> io::Result<FetchReq> {
    serde::bin::from_slice(frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("fetch request: {e}")))
}

/// Decodes a response header to a request for `requested` buckets. A
/// count past the bytes left fails before anything is allocated for it;
/// more answers than requested, or a bucket length over the blob cap,
/// is an error before any payload byte is read.
fn decode_rsp(frame: &[u8], requested: usize) -> Result<Vec<Answer>, String> {
    let rsp: FetchRsp =
        serde::bin::from_slice(frame).map_err(|e| format!("fetch response: {e}"))?;
    if rsp.answers.len() > requested {
        return Err(format!(
            "response announces {} buckets for {requested} requested",
            rsp.answers.len()
        ));
    }
    for answer in &rsp.answers {
        if let Answer::Bucket { len, .. } = answer {
            if *len > MAX_BLOB_LEN as u64 {
                return Err(format!("announced bucket length {len} exceeds blob cap"));
            }
        }
    }
    Ok(rsp.answers)
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

/// A task's fetch effort, drained by [`ShuffleEnv::take_counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchCounters {
    /// Bucket re-attempts: one per struck or failed bucket.
    pub retries: u64,
    /// Payload bytes of buckets fetched over a socket.
    pub bytes: u64,
    /// Requests sent over a socket.
    pub requests: u64,
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
    fetch_requests: AtomicU64,
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

/// How one requested bucket fared in one attempt.
enum Got {
    Done,
    /// Struck or broken: costs the bucket one retry.
    Failed(String),
    /// The server registered a different epoch — escalate immediately.
    Stale {
        have: u64,
    },
    /// The server hung up before reaching this bucket: no retry charged.
    Unsent,
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
            fetch_requests: AtomicU64::new(0),
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

    /// Swaps out and returns the per-task fetch counters accumulated
    /// since the last call.
    pub fn take_counters(&self) -> FetchCounters {
        FetchCounters {
            retries: self.fetch_retries.swap(0, Ordering::Relaxed),
            bytes: self.bytes_fetched.swap(0, Ordering::Relaxed),
            requests: self.fetch_requests.swap(0, Ordering::Relaxed),
        }
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

    /// Whether `addr` is one of this env's own shuffle ports.
    fn is_local(&self, addr: &str) -> bool {
        let Some(port) = addr.strip_prefix("127.0.0.1:").and_then(|p| p.parse::<u16>().ok()) else {
            return false;
        };
        self.acceptors.lock().unwrap().iter().any(|(p, _)| *p == port)
    }

    /// Answers one request into `w`: the header frame, then the payload
    /// of each served bucket. Each bucket draws its own fault strike, in
    /// request order; a tear ends the answer at the torn bucket, so no
    /// strike is drawn for a bucket the client never receives.
    /// `Ok(false)` means hang up (an injected fault tore the transfer).
    fn answer(&self, w: &mut impl Write, wants: &[Want]) -> io::Result<bool> {
        let found: Vec<Option<Bucket>> = {
            let buckets = self.buckets.lock().unwrap();
            wants.iter().map(|want| buckets.get(&want.key).cloned()).collect()
        };
        let mut answers = Vec::with_capacity(wants.len());
        let mut bodies = Vec::new();
        let mut whole = true;
        for (want, found) in wants.iter().zip(found) {
            let bucket = match found {
                None => {
                    answers.push(Answer::NotFound);
                    continue;
                }
                Some(b) if b.epoch != want.epoch => {
                    answers.push(Answer::StaleEpoch { have: b.epoch });
                    continue;
                }
                Some(b) => b,
            };
            // The epoch is the attempt, so regenerated outputs serve
            // cleanly; the key's CRC makes a seeded draw vary per bucket.
            let fault = self.faults.as_deref().and_then(|p| {
                p.strike(
                    Site::Fetch,
                    0,
                    u64::from(crc32(want.key.as_bytes())),
                    &want.key,
                    want.epoch,
                )
            });
            match fault {
                // fail-stop: the worker (and all its map outputs)
                // vanishes mid-shuffle
                Some(Fault::KillServingWorker) => std::process::exit(1),
                Some(Fault::RefuseFetch) => {
                    answers.push(Answer::Refused);
                    continue;
                }
                Some(Fault::DelayFetch(d)) => std::thread::sleep(d),
                Some(Fault::DropBucket) => whole = false,
                _ => {}
            }
            answers.push(Answer::Bucket { len: bucket.data.len() as u64, crc: bucket.crc });
            let off = (want.offset as usize).min(bucket.data.len());
            bodies.push((bucket.data, off, fault));
            if !whole {
                break;
            }
        }
        write_frame(w, &serde::bin::to_vec(&FetchRsp { answers }))?;
        for (data, off, fault) in bodies {
            match fault {
                // torn transfer: half the remaining bytes, then hang up —
                // the client resumes from its new offset
                Some(Fault::DropBucket) => w.write_all(&data[off..off + (data.len() - off) / 2])?,
                // full-length transfer, one byte flipped after the CRC
                // was announced — the client must reject it
                Some(Fault::CorruptBucket) => {
                    let mut sent = data[off..].to_vec();
                    if !sent.is_empty() {
                        let mid = sent.len() / 2;
                        sent[mid] ^= 0x40;
                    }
                    w.write_all(&sent)?;
                }
                _ => w.write_all(&data[off..])?,
            }
        }
        w.flush()?;
        Ok(whole)
    }

    /// Fetches one bucket: [`Self::fetch_all`] over a single source.
    pub fn fetch(&self, addr: &str, key: &str, epoch: u64) -> Result<Vec<u8>, FetchFailure> {
        let source = FetchSource { addr: addr.to_string(), key: key.to_string(), epoch };
        Ok(self.fetch_all(&[&source])?.pop().expect("one source, one payload"))
    }

    /// Fetches every bucket in `sources` and returns their payloads in
    /// the same order. Buckets this env serves itself are read from
    /// memory first; then each peer gets one request naming all of its
    /// buckets. Each bucket has its own retry budget, with bounded
    /// timeouts, jittered backoff and partial-fetch resume; a stale-epoch
    /// rejection escalates at once (retrying cannot help).
    pub fn fetch_all(&self, sources: &[&FetchSource]) -> Result<Vec<Vec<u8>>, FetchFailure> {
        let mut peers: Vec<(&str, Vec<usize>)> = Vec::new();
        for (i, src) in sources.iter().enumerate() {
            match peers.iter_mut().find(|(addr, _)| *addr == src.addr) {
                Some((_, idx)) => idx.push(i),
                None => peers.push((&src.addr, vec![i])),
            }
        }
        peers.sort_by_key(|(addr, _)| !self.is_local(addr));
        let mut out = vec![Vec::new(); sources.len()];
        for (addr, idx) in peers {
            let wants: Vec<(&str, u64)> =
                idx.iter().map(|&i| (sources[i].key.as_str(), sources[i].epoch)).collect();
            for (i, bytes) in idx.into_iter().zip(self.fetch_from(addr, &wants)?) {
                out[i] = bytes;
            }
        }
        Ok(out)
    }

    /// Fetches `wants` (key, epoch) from one peer — or from this env's
    /// own memory when `addr` is local — until each bucket completes or
    /// exhausts its budget.
    fn fetch_from(&self, addr: &str, wants: &[(&str, u64)]) -> Result<Vec<Vec<u8>>, FetchFailure> {
        let local = self.is_local(addr);
        let mut held: Vec<Vec<u8>> = vec![Vec::new(); wants.len()];
        let mut done = vec![false; wants.len()];
        let mut failures = vec![0u32; wants.len()];
        let failure = |i: usize, stale: bool, reason: String| FetchFailure {
            addr: addr.to_string(),
            key: wants[i].0.to_string(),
            epoch: wants[i].1,
            stale,
            reason,
        };
        loop {
            let pending: Vec<usize> = (0..wants.len()).filter(|&i| !done[i]).collect();
            if pending.is_empty() {
                return Ok(held);
            }
            let req: Vec<Want> = pending
                .iter()
                .map(|&i| Want {
                    key: wants[i].0.to_string(),
                    epoch: wants[i].1,
                    offset: held[i].len() as u64,
                })
                .collect();
            let mut bufs: Vec<Vec<u8>> =
                pending.iter().map(|&i| std::mem::take(&mut held[i])).collect();
            let got = if local {
                let mut wire = Vec::new();
                self.answer(&mut wire, &req).map_err(|e| e.to_string()).and_then(|_| {
                    read_answers(&mut wire.as_slice(), &req, &mut bufs).map(|(got, _)| got)
                })
            } else {
                self.exchange(addr, &req, &mut bufs)
            };
            // a failure of the request as a whole is the first bucket's
            let got = got.unwrap_or_else(|reason| {
                let mut got: Vec<Got> = pending.iter().map(|_| Got::Unsent).collect();
                got[0] = Got::Failed(reason);
                got
            });
            let mut backoff = None;
            for ((&i, buf), got) in pending.iter().zip(bufs).zip(got) {
                held[i] = buf;
                match got {
                    Got::Done => {
                        done[i] = true;
                        if !local {
                            self.bytes_fetched.fetch_add(held[i].len() as u64, Ordering::Relaxed);
                        }
                    }
                    Got::Stale { have } => {
                        return Err(failure(i, true, format!("stale epoch (server has {have})")));
                    }
                    Got::Failed(reason) => {
                        failures[i] += 1;
                        if failures[i] > self.cfg.max_retries {
                            let attempts = failures[i];
                            let reason = format!("{attempts} attempts exhausted; last: {reason}");
                            return Err(failure(i, false, reason));
                        }
                        self.fetch_retries.fetch_add(1, Ordering::Relaxed);
                        backoff = backoff.max(Some(failures[i] - 1));
                    }
                    Got::Unsent => {}
                }
            }
            if let Some(exp) = backoff {
                std::thread::sleep(self.jittered_backoff(exp));
            }
        }
    }

    /// One request/response exchange with a peer. Received bytes
    /// accumulate into `bufs` (the resume state). The peer's pooled
    /// connection is used if there is one, and pooled again only after a
    /// response the server finished — a tear or any error drops it.
    /// `Err` is a failure of the request as a whole.
    fn exchange(&self, addr: &str, req: &[Want], bufs: &mut [Vec<u8>]) -> Result<Vec<Got>, String> {
        let frame = serde::bin::to_vec(&FetchReq { buckets: req.to_vec() });
        self.fetch_requests.fetch_add(1, Ordering::Relaxed);
        let pooled = self.conns.lock().unwrap().remove(addr);
        let mut reused = None;
        if let Some(mut conn) = pooled {
            // `false`: the server had already closed this connection (it
            // hangs up on idle peers) and never saw the request, so it is
            // re-sent once on a fresh connection and costs no retry
            if conn.request(&frame).map_err(|e| e.to_string())? {
                reused = Some(conn);
            }
        }
        let mut conn = match reused {
            Some(conn) => conn,
            None => {
                let mut conn = self.connect(addr)?;
                if !conn.request(&frame).map_err(|e| e.to_string())? {
                    return Err("server hung up before responding".into());
                }
                conn
            }
        };
        let (got, finished) = read_answers(&mut conn.reader, req, bufs)?;
        if finished {
            self.conns.lock().unwrap().insert(addr.to_string(), conn);
        }
        Ok(got)
    }

    fn connect(&self, addr: &str) -> Result<Conn, String> {
        let io_err = |e: io::Error| e.to_string();
        let sock = addr
            .to_socket_addrs()
            .map_err(io_err)?
            .next()
            .ok_or_else(|| format!("unresolvable address {addr:?}"))?;
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

/// Reads one response to `req` from `r`: the header, then each served
/// bucket's bytes into its resume buffer in `bufs`, CRC-checked once
/// complete. Returns one outcome per requested bucket, and whether the
/// server finished the response (the stream is aligned for the next
/// request). `Err` means no answer could be read at all.
fn read_answers(
    r: &mut impl Read,
    req: &[Want],
    bufs: &mut [Vec<u8>],
) -> Result<(Vec<Got>, bool), String> {
    let header = match read_frame(r) {
        Ok(Some(frame)) => frame,
        Ok(None) => return Err("server hung up before responding".into()),
        Err(e) => return Err(e.to_string()),
    };
    let answers = decode_rsp(&header, req.len())?;
    if answers.is_empty() && !req.is_empty() {
        return Err("response answers none of the requested buckets".into());
    }
    let mut got = Vec::with_capacity(req.len());
    let mut finished = answers.len() == req.len();
    for (answer, buf) in answers.into_iter().zip(bufs.iter_mut()) {
        let (len, crc) = match answer {
            Answer::Refused => {
                got.push(Got::Failed("fetch refused".into()));
                continue;
            }
            Answer::NotFound => {
                got.push(Got::Failed("bucket not registered on server".into()));
                continue;
            }
            Answer::StaleEpoch { have } => {
                got.push(Got::Stale { have });
                continue;
            }
            Answer::Bucket { len, crc } => (len as usize, crc),
        };
        // the server sends `payload[min(offset, len)..]`
        let want = len.saturating_sub(buf.len()) as u64;
        let read = r.take(want).read_to_end(buf);
        match read {
            Ok(n) if (n as u64) < want => {
                got.push(Got::Failed(format!(
                    "connection closed mid-transfer at {}/{len} bytes",
                    buf.len()
                )));
                finished = false;
                break;
            }
            Err(e) => {
                got.push(Got::Failed(e.to_string()));
                finished = false;
                break;
            }
            Ok(_) if buf.len() > len => {
                // the server's view shrank; the resume state is junk
                buf.clear();
                got.push(Got::Failed("resume offset past the bucket's end".into()));
            }
            Ok(_) if crc32(buf) != crc => {
                buf.clear();
                got.push(Got::Failed("bucket checksum mismatch".into()));
            }
            Ok(_) => got.push(Got::Done),
        }
    }
    got.resize_with(req.len(), || Got::Unsent);
    Ok((got, finished))
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
    while let Some(frame) = read_frame(&mut reader)? {
        let req = decode_req(&frame)?;
        let Some(env) = env.upgrade() else { return Ok(()) };
        if !env.answer(&mut BufWriter::new(&mut writer), &req.buckets)? {
            return Ok(());
        }
    }
    Ok(()) // clean hangup
}

impl Conn {
    /// Sends one request frame and waits for the response to start.
    /// `Ok(false)` means the peer had closed the connection: it hung up
    /// (EOF or reset) before sending a single response byte.
    fn request(&mut self, frame: &[u8]) -> io::Result<bool> {
        let hung_up = |e: &io::Error| {
            matches!(
                e.kind(),
                io::ErrorKind::BrokenPipe
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
            )
        };
        match write_frame(&mut self.writer, frame) {
            Err(e) if hung_up(&e) => return Ok(false),
            sent => sent?,
        }
        match self.reader.fill_buf() {
            Ok(bytes) => Ok(!bytes.is_empty()),
            Err(e) if hung_up(&e) => Ok(false),
            Err(e) => Err(e),
        }
    }
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
        let counters = client.take_counters();
        assert_eq!(counters.retries, 0, "clean fetch must not retry");
        assert_eq!(counters.bytes, data.len() as u64);
        assert_eq!(counters.requests, 1);
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
        assert_eq!(client.take_counters().retries, 0);
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
        assert_eq!(
            client.take_counters().retries,
            0,
            "replacing a closed connection is not a retry"
        );
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
        assert_eq!(client.take_counters().retries, 0, "stale escalates before any retry");
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
        assert_eq!(client.take_counters().retries, 4, "every re-attempt counts as a retry");
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
        assert_eq!(client.take_counters().retries, 2, "each torn transfer costs one retry");
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
        assert_eq!(client.take_counters().retries, 1);
    }

    #[test]
    fn refused_fetches_retry_until_the_policy_exhausts() {
        let server = env_with(Some(strikes(Fault::RefuseFetch, 3)));
        server.put_bucket("sh/task-00000/bucket-00000", 0, b"payload").unwrap();
        let port = server.serve().unwrap();

        let client = env_with(None);
        let got = client.fetch(&addr(port), "sh/task-00000/bucket-00000", 0).unwrap();
        assert_eq!(got, b"payload");
        assert_eq!(client.take_counters().retries, 3);
    }

    #[test]
    fn unreachable_peer_fails_with_bounded_attempts() {
        let client = env_with(None);
        // a port nothing listens on: every connect is refused promptly
        let err = client.fetch("127.0.0.1:1", "sh/task-00000/bucket-00000", 0).unwrap_err();
        assert!(!err.stale);
        assert_eq!(client.take_counters().retries, 4);
    }

    /// `n` buckets of distinct sizes and bytes under `sh/task-0000{t}/`.
    fn put_many(env: &ShuffleEnv, n: usize) -> Vec<(String, Vec<u8>)> {
        (0..n)
            .map(|b| {
                let key = format!("sh/task-{:05}/bucket-{b:05}", b % 2);
                let data: Vec<u8> = (0..(700 + 300 * b)).map(|x| (x * 7 + b) as u8).collect();
                env.put_bucket(&key, 0, &data).unwrap();
                (key, data)
            })
            .collect()
    }

    fn sources_at(addr: &str, buckets: &[(String, Vec<u8>)]) -> Vec<FetchSource> {
        buckets
            .iter()
            .map(|(key, _)| FetchSource { addr: addr.to_string(), key: key.clone(), epoch: 0 })
            .collect()
    }

    fn fetch_all(env: &ShuffleEnv, sources: &[FetchSource]) -> Result<Vec<Vec<u8>>, FetchFailure> {
        env.fetch_all(&sources.iter().collect::<Vec<_>>())
    }

    #[test]
    fn one_request_fetches_every_bucket_a_peer_holds() {
        let server = env_with(None);
        let buckets = put_many(&server, 6);
        let port = server.serve().unwrap();
        let client = env_with(None);
        let got = fetch_all(&client, &sources_at(&addr(port), &buckets)).unwrap();
        let want: Vec<Vec<u8>> = buckets.iter().map(|(_, d)| d.clone()).collect();
        assert_eq!(got, want, "payloads come back in source order");
        let counters = client.take_counters();
        assert_eq!(counters.requests, 1, "one request per peer");
        assert_eq!(counters.retries, 0);
        assert_eq!(counters.bytes, want.iter().map(|d| d.len() as u64).sum::<u64>());
    }

    #[test]
    fn own_buckets_are_read_from_memory_without_a_socket() {
        let env = env_with(None);
        let buckets = put_many(&env, 4);
        let port = env.serve().unwrap();
        let got = fetch_all(&env, &sources_at(&addr(port), &buckets)).unwrap();
        assert_eq!(got, buckets.iter().map(|(_, d)| d.clone()).collect::<Vec<_>>());
        assert_eq!(env.take_counters(), FetchCounters::default(), "no request, no fetched bytes");
        assert!(env.conns.lock().unwrap().is_empty(), "a local read opens no connection");
        // a stale or missing bucket reads the same locally as remotely
        let stale = FetchSource { addr: addr(port), key: buckets[0].0.clone(), epoch: 3 };
        let err = fetch_all(&env, &[stale]).unwrap_err();
        assert!(err.stale && err.reason.contains("server has 0"), "{err}");
    }

    #[test]
    fn a_torn_second_bucket_keeps_the_first_and_resumes_itself() {
        // the strike tears bucket 1 of a three-bucket response: bucket 0
        // is kept, bucket 1 resumes from its own offset, bucket 2 was
        // never reached and costs nothing
        let rule = FaultRule::new(Fault::DropBucket, Scope::Key("bucket-00001".into()));
        let server =
            env_with(Some(FaultPlan::new(0, vec![FaultRule { strikes: Some(1), ..rule }])));
        let buckets = put_many(&server, 3);
        let port = server.serve().unwrap();
        let client = env_with(None);
        let got = fetch_all(&client, &sources_at(&addr(port), &buckets)).unwrap();
        assert_eq!(got, buckets.iter().map(|(_, d)| d.clone()).collect::<Vec<_>>());
        let counters = client.take_counters();
        assert_eq!(counters.retries, 1, "one retry for the one struck bucket");
        assert_eq!(counters.requests, 2, "the resume asks again only for what is missing");
        let sent: u64 = buckets.iter().map(|(_, d)| d.len() as u64).sum();
        assert_eq!(counters.bytes, sent, "each completed bucket counts once");
    }

    #[test]
    fn every_struck_bucket_of_one_response_costs_one_retry() {
        let server = env_with(Some(strikes(Fault::RefuseFetch, 3)));
        let buckets = put_many(&server, 5);
        let port = server.serve().unwrap();
        let client = env_with(None);
        let got = fetch_all(&client, &sources_at(&addr(port), &buckets)).unwrap();
        assert_eq!(got, buckets.iter().map(|(_, d)| d.clone()).collect::<Vec<_>>());
        let counters = client.take_counters();
        assert_eq!(counters.retries, 3, "three refused buckets, three retries");
        assert_eq!(counters.requests, 2, "the refusals are retried together");
    }

    #[test]
    fn faults_struck_on_a_local_read_cost_one_retry_each() {
        for fault in [Fault::RefuseFetch, Fault::CorruptBucket, Fault::DropBucket] {
            let env = env_with(Some(FaultPlan::once(fault)));
            let buckets = put_many(&env, 3);
            let port = env.serve().unwrap();
            let got = fetch_all(&env, &sources_at(&addr(port), &buckets)).unwrap();
            assert_eq!(
                got,
                buckets.iter().map(|(_, d)| d.clone()).collect::<Vec<_>>(),
                "{fault:?}"
            );
            let counters = env.take_counters();
            assert_eq!(counters.retries, 1, "{fault:?}: one strike, one retry");
            assert_eq!((counters.requests, counters.bytes), (0, 0), "{fault:?}: still local");
            assert_eq!(env.faults.as_deref().unwrap().injected(), 1);
        }
    }

    #[test]
    fn local_and_remote_buckets_come_back_in_source_order() {
        let me = env_with(None);
        let peer = env_with(None);
        let mine = put_many(&me, 2);
        let theirs: Vec<(String, Vec<u8>)> = (0..2)
            .map(|b| (format!("sh/task-00002/bucket-{b:05}"), vec![0xB0 + b as u8; 900]))
            .collect();
        for (key, data) in &theirs {
            peer.put_bucket(key, 0, data).unwrap();
        }
        let (my_addr, peer_addr) = (addr(me.serve().unwrap()), addr(peer.serve().unwrap()));
        // interleaved: remote, local, remote, local
        let sources = [
            sources_at(&peer_addr, &theirs[..1]),
            sources_at(&my_addr, &mine[..1]),
            sources_at(&peer_addr, &theirs[1..]),
            sources_at(&my_addr, &mine[1..]),
        ]
        .concat();
        let got = fetch_all(&me, &sources).unwrap();
        let want = [&theirs[0].1, &mine[0].1, &theirs[1].1, &mine[1].1];
        assert_eq!(got.iter().collect::<Vec<_>>(), want);
        let counters = me.take_counters();
        assert_eq!(counters.requests, 1, "one request for the peer's two buckets");
        assert_eq!(counters.bytes, 1800, "only the peer's bytes crossed a socket");
    }

    // --- hostile bytes -----------------------------------------------------

    fn wants(n: usize) -> Vec<Want> {
        (0..n)
            .map(|b| Want { key: format!("sh/task-00000/bucket-{b:05}"), epoch: 1, offset: 17 })
            .collect()
    }

    fn rsp_bytes(answers: Vec<Answer>) -> Vec<u8> {
        serde::bin::to_vec(&FetchRsp { answers })
    }

    #[test]
    fn request_and_response_headers_roundtrip() {
        let req = FetchReq { buckets: wants(3) };
        assert_eq!(decode_req(&serde::bin::to_vec(&req)).unwrap(), req);
        let answers = vec![
            Answer::Bucket { len: 4096, crc: 0xDEAD_BEEF },
            Answer::NotFound,
            Answer::StaleEpoch { have: 9 },
            Answer::Refused,
        ];
        assert_eq!(decode_rsp(&rsp_bytes(answers.clone()), 4).unwrap(), answers);
    }

    #[test]
    fn every_truncation_of_a_request_or_response_is_a_typed_error() {
        let req = serde::bin::to_vec(&FetchReq { buckets: wants(3) });
        for cut in 0..req.len() {
            let err = decode_req(&req[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}: {err}");
        }
        let rsp = rsp_bytes(vec![Answer::Bucket { len: 10, crc: 1 }, Answer::Refused]);
        for cut in 0..rsp.len() {
            assert!(decode_rsp(&rsp[..cut], 2).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn mangled_requests_and_responses_never_panic() {
        let req = serde::bin::to_vec(&FetchReq { buckets: wants(2) });
        let rsp =
            rsp_bytes(vec![Answer::Bucket { len: 10, crc: 1 }, Answer::StaleEpoch { have: 2 }]);
        for (i, x) in (0..req.len()).flat_map(|i| [0x01u8, 0x80, 0xFF].map(|x| (i, x))) {
            let mut bad = req.clone();
            bad[i] ^= x;
            let _ = decode_req(&bad);
        }
        for (i, x) in (0..rsp.len()).flat_map(|i| [0x01u8, 0x80, 0xFF].map(|x| (i, x))) {
            let mut bad = rsp.clone();
            bad[i] ^= x;
            let _ = decode_rsp(&bad, 2);
        }
    }

    #[test]
    fn a_response_announcing_more_buckets_than_requested_is_rejected() {
        let rsp = rsp_bytes(vec![Answer::Refused; 3]);
        let err = decode_rsp(&rsp, 2).unwrap_err();
        assert!(err.contains("announces 3 buckets for 2 requested"), "{err}");
        // ... and the client charges it to the request, not a panic
        let mut bufs = vec![Vec::new(); 2];
        assert!(read_answers(&mut &framed(&rsp)[..], &wants(2), &mut bufs).is_err());
    }

    #[test]
    fn oversized_lengths_and_counts_are_rejected_before_allocation() {
        let over = MAX_BLOB_LEN as u64 + 1;
        let err =
            decode_rsp(&rsp_bytes(vec![Answer::Bucket { len: over, crc: 0 }]), 1).unwrap_err();
        assert!(err.contains("exceeds blob cap"), "{err}");
        // a count varint of u32::MAX with two bytes left: the reader must
        // refuse before reserving anything for it
        let huge_count = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x00, 0x00];
        let err = decode_rsp(&huge_count, usize::MAX).unwrap_err();
        assert!(err.contains("exceeds the"), "{err}");
        let err = decode_req(&huge_count).unwrap_err();
        assert!(err.to_string().contains("exceeds the"), "{err}");
    }

    /// `payload` in one STK1 frame, as a server would send it.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn a_server_sending_garbage_fails_the_fetch_without_panicking() {
        // a peer that answers every request with bytes that are not a
        // response header: each attempt fails, the budget bounds them
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let garbage = std::thread::spawn(move || {
            for stream in listener.incoming().take(5) {
                let mut stream = stream.unwrap();
                let _ = read_frame(&mut stream);
                let _ = stream.write_all(&framed(&[0xFF; 9]));
            }
        });
        let client = env_with(None);
        let err = client.fetch(&addr(port), "sh/task-00000/bucket-00000", 0).unwrap_err();
        assert!(!err.stale && err.reason.contains("attempts exhausted"), "{err}");
        assert_eq!(client.take_counters().retries, 4);
        garbage.join().unwrap();
    }
}
