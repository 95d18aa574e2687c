//! STK1-framed wire transport between driver and workers.
//!
//! Frames reuse the object store's integrity envelope, prefixed with a
//! length so a stream reader can size its buffer — the same layout the
//! query service speaks (stark-server delegates to these functions):
//!
//! ```text
//! u32 LE payload length | b"STK1" | u32 LE crc32(payload) | payload
//! ```
//!
//! Control messages ([`DriverMsg`], [`WorkerMsg`]) are JSON payloads.
//! Row data never rides inside the JSON envelope: a task's inline input
//! and a `Collect` result's rows each travel as their own *raw* frame
//! immediately after the control frame that announces them (see
//! [`DriverMsg::Task::has_payload`] and [`TaskOutput::has_payload`]),
//! holding a binary [`encode_rows`](crate::plan::encode_rows) blob — the
//! same bytes a peer fetch serves for a shuffle bucket. JSON keeps the
//! small control protocol debuggable; the binary row codec keeps the
//! bulk of the traffic compact. The frame header catches truncation and
//! corruption before either decoder sees the bytes — a torn or
//! bit-flipped frame surfaces as `InvalidData`, which a worker treats as
//! fatal (fail-stop) so every transport fault funnels into the driver's
//! single worker-loss recovery path.

use crate::plan::{PlanFragment, TaskOutput};
use crate::shuffle::FetchFailure;
use crate::storage::{crc32, FRAME_HEADER_LEN, FRAME_MAGIC};
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Upper bound on a single frame's payload; a corrupt length prefix must
/// not make the receiver allocate gigabytes.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Writes one frame: length prefix, STK1 header, payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds max {}", payload.len(), MAX_FRAME_LEN),
        ));
    }
    let mut buf = Vec::with_capacity(4 + FRAME_HEADER_LEN + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(FRAME_MAGIC);
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Reads one frame, verifying magic and checksum. Returns `Ok(None)` on
/// a clean EOF at a frame boundary (peer hung up).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds max {MAX_FRAME_LEN}"),
        ));
    }
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    if &header[..4] != FRAME_MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad frame magic"));
    }
    let expect_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let got_crc = crc32(&payload);
    if got_crc != expect_crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame checksum mismatch: expected {expect_crc:08x}, got {got_crc:08x}"),
        ));
    }
    Ok(Some(payload))
}

/// Serializes and writes a message as one frame.
pub fn send_msg<T: Serialize>(w: &mut impl Write, msg: &T) -> io::Result<()> {
    let payload = serde_json::to_vec(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode: {e}")))?;
    write_frame(w, &payload)
}

/// Reads and deserializes one message; `Ok(None)` on clean EOF.
pub fn recv_msg<T: serde::de::DeserializeOwned>(r: &mut impl Read) -> io::Result<Option<T>> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let msg = serde_json::from_slice(&payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("decode: {e}")))?;
    Ok(Some(msg))
}

/// Reads the raw payload frame that a control message announced. A peer
/// that promised a payload and hung up instead is a protocol error, not
/// a clean EOF.
pub fn recv_payload(r: &mut impl Read) -> io::Result<Vec<u8>> {
    read_frame(r)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "peer hung up before its payload frame")
    })
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// Driver → worker messages.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum DriverMsg {
    /// Run a plan fragment. When `has_payload`, the task's inline input
    /// rows follow as one raw frame. `attempt` counts reassignments of
    /// the same logical task.
    Task { id: u64, attempt: u32, fragment: PlanFragment, has_payload: bool },
    /// Liveness probe; the worker echoes [`WorkerMsg::Pong`].
    Ping { seq: u64 },
    /// A shuffle stage ended: drop every bucket stored under
    /// `{prefix}/`. No reply.
    ReleaseShuffle { prefix: String },
    /// Finish the in-flight task (if any), then exit cleanly.
    Drain,
}

/// Worker → driver messages.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum WorkerMsg {
    /// First message after connecting: identifies the worker seat, the
    /// row schemas it can execute and the port its shuffle server
    /// listens on (`0` when remote shuffle is unavailable).
    Hello { worker_id: usize, pid: u32, schemas: Vec<String>, shuffle_port: u16 },
    /// Echo of [`DriverMsg::Ping`].
    Pong { seq: u64 },
    /// Periodic liveness push from the worker's heartbeat thread; also
    /// flows while a long task is executing.
    Heartbeat { busy: bool },
    /// Task finished. When `output.has_payload()`, the row payload
    /// follows as one raw frame. `fetch_retries`/`fetch_bytes` report
    /// the task's remote-shuffle fetch effort so the driver can account
    /// retries and traffic even for tasks that ultimately succeeded.
    TaskOk { id: u64, output: TaskOutput, micros: u64, fetch_retries: u64, fetch_bytes: u64 },
    /// Task failed on the worker (the worker itself stays healthy).
    /// When the failure was an exhausted remote bucket fetch, `fetch`
    /// carries the typed failure so the driver runs lost-map-output
    /// recovery instead of blind task retry.
    TaskErr {
        id: u64,
        message: String,
        retryable: bool,
        fetch_retries: u64,
        fetch: Option<FetchFailure>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanInput, PlanSink};
    use std::io::Cursor;

    fn task_msg() -> DriverMsg {
        DriverMsg::Task {
            id: 7,
            attempt: 1,
            fragment: PlanFragment {
                schema: "i64".into(),
                input: PlanInput::Inline,
                ops: vec![],
                sink: PlanSink::Count,
            },
            has_payload: true,
        }
    }

    #[test]
    fn control_and_payload_frames_roundtrip() {
        let mut buf = Vec::new();
        send_msg(&mut buf, &task_msg()).unwrap();
        write_frame(&mut buf, b"[1,2,3]").unwrap();
        let mut r = Cursor::new(&buf);
        let msg: DriverMsg = recv_msg(&mut r).unwrap().unwrap();
        assert_eq!(msg, task_msg());
        assert_eq!(recv_payload(&mut r).unwrap(), b"[1,2,3]");
    }

    #[test]
    fn clean_eof_is_none_but_missing_payload_is_an_error() {
        let got: Option<WorkerMsg> = recv_msg(&mut Cursor::new(&[])).unwrap();
        assert!(got.is_none());
        assert!(recv_payload(&mut Cursor::new(&[])).is_err());
    }

    #[test]
    fn corrupt_and_truncated_frames_are_invalid_data() {
        let mut buf = Vec::new();
        send_msg(&mut buf, &WorkerMsg::Heartbeat { busy: false }).unwrap();
        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        let err = recv_msg::<WorkerMsg>(&mut Cursor::new(&flipped)).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        let mut torn = buf;
        torn.truncate(torn.len() - 3);
        assert!(recv_msg::<WorkerMsg>(&mut Cursor::new(&torn)).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(FRAME_MAGIC);
        buf.extend_from_slice(&[0u8; 4]);
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert!(err.to_string().contains("exceeds max"), "{err}");
    }

    #[test]
    fn worker_msgs_roundtrip() {
        for msg in [
            WorkerMsg::Hello {
                worker_id: 2,
                pid: 4242,
                schemas: vec!["i64".into()],
                shuffle_port: 40123,
            },
            WorkerMsg::Pong { seq: 9 },
            WorkerMsg::TaskOk {
                id: 3,
                output: TaskOutput::Count(11),
                micros: 55,
                fetch_retries: 2,
                fetch_bytes: 8192,
            },
            WorkerMsg::TaskErr {
                id: 4,
                message: "boom".into(),
                retryable: true,
                fetch_retries: 0,
                fetch: None,
            },
            WorkerMsg::TaskErr {
                id: 5,
                message: "fetch exhausted".into(),
                retryable: true,
                fetch_retries: 4,
                fetch: Some(FetchFailure {
                    addr: "127.0.0.1:40123".into(),
                    key: "sh/task-00001/bucket-00002".into(),
                    epoch: 1,
                    stale: false,
                    reason: "5 attempts exhausted".into(),
                }),
            },
        ] {
            let mut buf = Vec::new();
            send_msg(&mut buf, &msg).unwrap();
            let got: WorkerMsg = recv_msg(&mut Cursor::new(&buf)).unwrap().unwrap();
            assert_eq!(got, msg);
        }
    }

    #[test]
    fn frame_at_exactly_the_cap_roundtrips() {
        // the length check is `>`, so a payload of exactly MAX_FRAME_LEN
        // bytes must survive both directions
        let payload = vec![0xA7u8; MAX_FRAME_LEN];
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let back = read_frame(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(back.len(), MAX_FRAME_LEN);
        assert_eq!(back, payload);
    }

    #[test]
    fn frame_one_past_the_cap_is_rejected_on_both_sides() {
        let payload = vec![0u8; MAX_FRAME_LEN + 1];
        let err = write_frame(&mut Vec::new(), &payload).unwrap_err();
        assert!(err.to_string().contains("exceeds max"), "{err}");

        // a forged length prefix of cap+1 must be rejected before the
        // receiver allocates the buffer
        let mut forged = Vec::new();
        forged.extend_from_slice(&((MAX_FRAME_LEN + 1) as u32).to_le_bytes());
        forged.extend_from_slice(FRAME_MAGIC);
        forged.extend_from_slice(&[0u8; 4]);
        let err = read_frame(&mut Cursor::new(&forged)).unwrap_err();
        assert!(err.to_string().contains("exceeds max"), "{err}");
    }
}
