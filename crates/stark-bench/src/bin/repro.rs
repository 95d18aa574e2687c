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
//!   repro service `[n]`      # S11 query-service load + fairness (writes target/s11-service.json;
//!                            # seed via STARK_CHAOS_SEED, session cap via S11_MAX_SESSIONS)
//!   repro columnar `[n]`     # S12 columnar-vs-row filter ablation (writes target/s12-columnar.json)
//!   repro ivm `[n]`          # S13 incremental-view-maintenance ablation: standing join at
//!                            # 10x the S6 rate, recompute vs delta (writes target/s13-ivm.json)
//!   repro distributed `[n]`  # S14 supervised multi-process ablation: A1/F4/A2 on forked
//!                            # workers over TCP, with a mid-shuffle worker kill
//!                            # (writes target/s14-distributed.json)
//!   repro features | filter | join | knn | dbscan | pruning | balance | indexmodes | stream
//!
//! `n` overrides the workload size. Figure 4's paper-scale run is
//! `repro figure4 1000000` (takes a while on a small machine).
//!
//! `repro` is also S14's worker program: the pool forks
//! `repro --addr HOST:PORT --id SEAT ...`, which serves the `i64` and
//! `event` schemas instead of running an experiment.

use stark_bench::experiments;
use stark_engine::worker::{run_from_args, WorkerRuntime};
use stark_engine::Context;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).is_some_and(|a| a == "--addr") {
        let mut rt = WorkerRuntime::new();
        rt.register(Box::new(stark_engine::plan::int_registry()));
        rt.register(Box::new(stark::distributed::event_registry()));
        if let Err(e) = run_from_args(&rt, args.into_iter().skip(1)) {
            eprintln!("repro (worker): {e}");
            std::process::exit(1);
        }
        return;
    }
    let which = args.get(1).map(String::as_str).unwrap_or("all");
    let n: Option<usize> = args.get(2).and_then(|s| s.parse().ok());
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
    if run("columnar") {
        ran = true;
        let t = experiments::columnar(ctx.parallelism(), n.unwrap_or(200_000), 5);
        print!("{}", t.render());
        println!();
        // machine-readable copy for CI artifacts
        let json = serde_json::to_string_pretty(&t).expect("serialise S12 table");
        let path = std::env::var("S12_JSON").unwrap_or_else(|_| "target/s12-columnar.json".into());
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, json).expect("write S12 json");
        eprintln!("[s12] wrote {path}");
    }
    if run("ivm") {
        ran = true;
        // S6 streams 1 000 events per generator batch; S13 holds the
        // standing join at ten times that rate
        let t = experiments::ivm(&ctx, 8, n.unwrap_or(10_000));
        print!("{}", t.render());
        println!();
        // machine-readable copy for CI artifacts
        let json = serde_json::to_string_pretty(&t).expect("serialise S13 table");
        let path = std::env::var("S13_JSON").unwrap_or_else(|_| "target/s13-ivm.json".into());
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, json).expect("write S13 json");
        eprintln!("[s13] wrote {path}");
    }
    if run("distributed") {
        ran = true;
        let workers: usize = std::env::var("S14_WORKERS")
            .ok()
            .map(|s| s.trim().parse().expect("S14_WORKERS must be a usize"))
            .unwrap_or(4);
        let exe = std::env::current_exe().expect("own executable path");
        let t = experiments::distributed(&exe, n.unwrap_or(20_000), workers);
        print!("{}", t.render());
        println!();
        // machine-readable copy for CI artifacts
        let json = serde_json::to_string_pretty(&t).expect("serialise S14 table");
        let path =
            std::env::var("S14_JSON").unwrap_or_else(|_| "target/s14-distributed.json".into());
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, json).expect("write S14 json");
        eprintln!("[s14] wrote {path}");
    }
    if run("chaos") {
        ran = true;
        let seed: u64 = std::env::var("STARK_CHAOS_SEED")
            .ok()
            .map(|s| s.trim().parse().expect("STARK_CHAOS_SEED must be a u64"))
            .unwrap_or(0xC4A05);
        let t = experiments::chaos(ctx.parallelism(), n.unwrap_or(100_000), seed);
        print!("{}", t.render());
        println!();
        // machine-readable copy for CI artifacts
        let json = serde_json::to_string_pretty(&t).expect("serialise S8 table");
        let path = std::env::var("S8_JSON").unwrap_or_else(|_| "target/s8-chaos.json".into());
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, json).expect("write S8 json");
        eprintln!("[s8] wrote {path}");
    }
    if run("stragglers") {
        ran = true;
        let seed: u64 = std::env::var("STARK_CHAOS_SEED")
            .ok()
            .map(|s| s.trim().parse().expect("STARK_CHAOS_SEED must be a u64"))
            .unwrap_or(0xC4A05);
        let t = experiments::stragglers(ctx.parallelism(), n.unwrap_or(100_000), seed);
        print!("{}", t.render());
        println!();
        // machine-readable copy for CI artifacts
        let json = serde_json::to_string_pretty(&t).expect("serialise S9 table");
        let path = std::env::var("S9_JSON").unwrap_or_else(|_| "target/s9-stragglers.json".into());
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, json).expect("write S9 json");
        eprintln!("[s9] wrote {path}");
    }
    if run("memory") {
        ran = true;
        let seed: u64 = std::env::var("STARK_CHAOS_SEED")
            .ok()
            .map(|s| s.trim().parse().expect("STARK_CHAOS_SEED must be a u64"))
            .unwrap_or(0xC4A05);
        let t = experiments::memory(ctx.parallelism(), n.unwrap_or(100_000), seed);
        print!("{}", t.render());
        println!();
        // machine-readable copy for CI artifacts
        let json = serde_json::to_string_pretty(&t).expect("serialise S10 table");
        let path = std::env::var("S10_JSON").unwrap_or_else(|_| "target/s10-memory.json".into());
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, json).expect("write S10 json");
        eprintln!("[s10] wrote {path}");
    }

    if run("service") {
        ran = true;
        let seed: u64 = std::env::var("STARK_CHAOS_SEED")
            .ok()
            .map(|s| s.trim().parse().expect("STARK_CHAOS_SEED must be a u64"))
            .unwrap_or(0xC4A05);
        let max_sessions: usize = std::env::var("S11_MAX_SESSIONS")
            .ok()
            .map(|s| s.trim().parse().expect("S11_MAX_SESSIONS must be a usize"))
            .unwrap_or(1024);
        let rows = n.unwrap_or(20_000) as i64;
        let t = stark_bench::service::service(ctx.parallelism(), rows, seed, max_sessions);
        print!("{}", t.render());
        println!();
        // machine-readable copy for CI artifacts
        let json = serde_json::to_string_pretty(&t).expect("serialise S11 table");
        let path = std::env::var("S11_JSON").unwrap_or_else(|_| "target/s11-service.json".into());
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, json).expect("write S11 json");
        eprintln!("[s11] wrote {path}");
    }

    if !ran {
        eprintln!(
            "unknown experiment {which:?}; try: all, features, figure4, filter, join, knn, dbscan, pruning, balance, scaling, temporal, indexmodes, stream, columnar, ivm, distributed, chaos, stragglers, memory, service"
        );
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
