//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!   repro all `[n]`          # every experiment (default scale)
//!   repro figure4 `[n]`      # the Figure 4 self-join comparison
//!   repro chaos `[n]`        # S8 fault-tolerance ablation (writes target/s8-chaos.json;
//!                            # seed via STARK_CHAOS_SEED)
//!   repro stragglers `[n]`   # S9 straggler ablation (writes target/s9-stragglers.json;
//!                            # seed via STARK_CHAOS_SEED)
//!   repro memory `[n]`       # S10 memory-governance ablation (writes target/s10-memory.json;
//!                            # seed via STARK_CHAOS_SEED)
//!   repro features | filter | join | knn | dbscan | pruning | balance | scaling | temporal
//!         | indexmodes | stream
//!
//! `n` overrides the workload size; anything but a non-negative integer
//! exits with status 2. Figure 4's paper-scale run is
//! `repro figure4 1000000` (takes a while on a small machine).

use stark_bench::{experiments, Table};
use stark_engine::Context;

const EXPERIMENTS: &str = "all, features, figure4, filter, join, knn, dbscan, pruning, balance, \
                           scaling, temporal, indexmodes, stream, chaos, stragglers, memory";

/// Runs one of the seeded engine ablations with the injector seed from
/// `STARK_CHAOS_SEED`, prints its table and writes a machine-readable
/// copy to `$json_var` (default `default_path`).
fn seeded_ablation(json_var: &str, default_path: &str, run: impl FnOnce(u64) -> Table) {
    let seed: u64 = std::env::var("STARK_CHAOS_SEED")
        .ok()
        .map(|s| s.trim().parse().expect("STARK_CHAOS_SEED must be a u64"))
        .unwrap_or(0xC4A05);
    let t = run(seed);
    print!("{}", t.render());
    println!();
    let json = serde_json::to_string_pretty(&t).expect("serialise table");
    let path = std::env::var(json_var).unwrap_or_else(|_| default_path.into());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("[repro] wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(String::as_str).unwrap_or("all");
    let n: Option<usize> = args.get(2).map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("invalid size {s:?}: expected a non-negative integer");
            std::process::exit(2);
        })
    });
    let ctx = Context::new();

    let run = |name: &str| which == "all" || which == name;
    let mut ran = false;

    if run("features") {
        ran = true;
        print!("{}", experiments::features().render());
        println!();
    }
    if run("figure4") {
        ran = true;
        print!("{}", experiments::figure4(&ctx, n.unwrap_or(100_000)).render());
        println!();
    }
    if run("filter") {
        ran = true;
        print!("{}", experiments::filter(&ctx, n.unwrap_or(200_000)).render());
        println!();
    }
    if run("join") {
        ran = true;
        print!("{}", experiments::join(&ctx, n.unwrap_or(20_000)).render());
        println!();
    }
    if run("knn") {
        ran = true;
        print!("{}", experiments::knn(&ctx, n.unwrap_or(200_000)).render());
        println!();
    }
    if run("dbscan") {
        ran = true;
        let base = n.unwrap_or(30_000);
        print!("{}", experiments::dbscan_scaling(&ctx, &[base / 4, base / 2, base]).render());
        println!();
    }
    if run("pruning") {
        ran = true;
        print!("{}", experiments::pruning(&ctx, n.unwrap_or(200_000)).render());
        println!();
    }
    if run("balance") {
        ran = true;
        print!("{}", experiments::balance(&ctx, n.unwrap_or(100_000)).render());
        println!();
    }
    if run("scaling") {
        ran = true;
        let base = n.unwrap_or(200_000);
        print!("{}", experiments::scaling(&ctx, &[base / 4, base / 2, base]).render());
        println!();
    }
    if run("temporal") {
        ran = true;
        print!("{}", experiments::temporal(&ctx, n.unwrap_or(200_000)).render());
        println!();
    }
    if run("indexmodes") {
        ran = true;
        print!("{}", experiments::index_modes(&ctx, n.unwrap_or(100_000), 10).render());
        println!();
    }
    if run("stream") {
        ran = true;
        let base = n.unwrap_or(4_000);
        print!("{}", experiments::stream(&ctx, &[base / 4, base / 2, base], 8).render());
        println!();
    }
    if run("chaos") {
        ran = true;
        seeded_ablation("S8_JSON", "target/s8-chaos.json", |seed| {
            experiments::chaos(ctx.parallelism(), n.unwrap_or(100_000), seed)
        });
    }
    if run("stragglers") {
        ran = true;
        seeded_ablation("S9_JSON", "target/s9-stragglers.json", |seed| {
            experiments::stragglers(ctx.parallelism(), n.unwrap_or(100_000), seed)
        });
    }
    if run("memory") {
        ran = true;
        seeded_ablation("S10_JSON", "target/s10-memory.json", |seed| {
            experiments::memory(ctx.parallelism(), n.unwrap_or(100_000), seed)
        });
    }

    if !ran {
        eprintln!("unknown experiment {which:?}; try: {EXPERIMENTS}");
        std::process::exit(2);
    }

    let m = ctx.metrics();
    eprintln!(
        "[engine] jobs={} tasks={} records={} pruned_partitions={} shuffles={} task_time={:.2}s job_time={:.2}s",
        m.jobs,
        m.tasks_launched,
        m.records_read,
        m.partitions_pruned,
        m.shuffles,
        m.task_nanos as f64 / 1e9,
        m.job_nanos as f64 / 1e9
    );
}
