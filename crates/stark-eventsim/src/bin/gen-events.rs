//! Generates a synthetic event CSV in the paper's
//! `(id, category, time, wkt)` schema.
//!
//! ```text
//! Usage: gen-events <out.csv> [n] [kind] [seed]
//!   kind ∈ {uniform, clustered, world, regions}   (default: clustered)
//! ```

use stark_eventsim::{write_events_csv, EventGenerator};
use stark_geo::Envelope;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1) else {
        eprintln!("usage: gen-events <out.csv> [n] [uniform|clustered|world|regions] [seed]");
        std::process::exit(2);
    };
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(10_000);
    let kind = args.get(3).map(String::as_str).unwrap_or("clustered");
    let seed: u64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(2017);

    let space = Envelope::from_bounds(0.0, 0.0, 100.0, 100.0);
    let mut generator = EventGenerator::new(seed).with_time_range(0..1_000_000);
    let events = match kind {
        "uniform" => generator.uniform_points(n, &space),
        "clustered" => generator.clustered_points(n, 8, 2.0, &space),
        "world" => generator.world_events(n),
        "regions" => generator.rect_regions(n, 5.0, &space),
        other => {
            eprintln!("unknown kind {other:?}");
            std::process::exit(2);
        }
    };
    if let Err(e) = write_events_csv(path, &events) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {} {kind} events to {path}", events.len());
}
