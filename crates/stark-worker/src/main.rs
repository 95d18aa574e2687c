//! The full STARK worker process.
//!
//! Forked by a driver's [`stark_engine::WorkerPool`]; connects back over
//! TCP, heartbeats, and executes plan fragments for every schema the
//! workspace knows: the engine's built-in `i64` schema (used by the
//! supervision tests) and the spatial `event` schema (grid/BSP routing,
//! spatio-temporal filters, per-partition self-joins).
//!
//! Usage (normally constructed by the supervisor, not typed by hand):
//!
//! ```text
//! stark-worker --addr 127.0.0.1:PORT --id SEAT [--heartbeat-ms N] [--store DIR] [--faults JSON]
//! ```

use stark::distributed::event_registry;
use stark_engine::plan::int_registry;
use stark_engine::worker::{run_from_args, WorkerRuntime};

fn main() {
    let mut rt = WorkerRuntime::new();
    rt.register(Box::new(int_registry()));
    rt.register(Box::new(event_registry()));
    if let Err(e) = run_from_args(&rt, std::env::args().skip(1)) {
        eprintln!("stark-worker: {e}");
        std::process::exit(1);
    }
}
