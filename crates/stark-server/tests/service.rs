//! End-to-end tests of the query service over real TCP connections:
//! plan-cache reuse, typed errors for every shed/abort path, and tenant
//! isolation under budget pressure.

use stark_engine::{Context, EngineConfig};
use stark_piglet::Value;
use stark_server::{Client, QueryServer, Response, ServerConfig, TenantConfig};

/// An event dataset with `rows` points spread over a 100x100 plane.
fn dataset(ctx: &Context, rows: i64) -> stark_server::SharedDataset {
    let tuples: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 97),
                Value::Str(format!("POINT({} {})", i % 100, (i * 7) % 100)),
            ]
        })
        .collect();
    let schema = std::sync::Arc::new(vec!["id".into(), "t".into(), "wkt".into()]);
    ("ev".to_string(), schema, ctx.parallelize(tuples, 4))
}

fn start_server(config: ServerConfig, rows: i64) -> stark_server::ServerHandle {
    start_server_with_budget(config, rows, None)
}

fn start_server_with_budget(
    config: ServerConfig,
    rows: i64,
    memory_budget: Option<u64>,
) -> stark_server::ServerHandle {
    let ctx = Context::with_config(EngineConfig {
        parallelism: 2,
        default_partitions: 4,
        memory_budget,
        ..EngineConfig::default()
    });
    let ds = dataset(&ctx, rows);
    QueryServer::start(ctx, vec![ds], config).expect("server starts")
}

#[test]
fn round_trip_and_stats() {
    let server = start_server(ServerConfig::default(), 100);
    let mut client = Client::connect(server.addr()).unwrap();
    match client.query("default", "f = FILTER ev BY id < 5;\nDUMP f;", None).unwrap() {
        Response::Ok { outputs, cache_hit, .. } => {
            assert!(!cache_hit, "first submission must miss the plan cache");
            assert_eq!(outputs.len(), 1);
        }
        other => panic!("expected Ok, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.queries_ok, 1);
    assert_eq!(stats.cache_misses, 1);
}

#[test]
fn repeated_scripts_hit_the_plan_cache() {
    let server = start_server(ServerConfig::default(), 100);
    let mut client = Client::connect(server.addr()).unwrap();
    // same shape, different literals and alias names — one plan
    let scripts = [
        "f = FILTER ev BY id < 10;\nDUMP f;",
        "g = FILTER ev BY id < 77;\nDUMP g;",
        "result = FILTER ev BY id < 3;  -- comment\nDUMP result;",
    ];
    let mut hits = Vec::new();
    for script in scripts {
        match client.query("default", script, None).unwrap() {
            Response::Ok { cache_hit, .. } => hits.push(cache_hit),
            other => panic!("expected Ok, got {other:?}"),
        }
    }
    assert_eq!(hits, vec![false, true, true], "only the first shape submission plans");
    assert_eq!(server.cache_stats(), (2, 1));

    // literals still bind per-request: different thresholds, different rows
    let count = |resp: Response| match resp {
        Response::Ok { outputs, .. } => match outputs.into_iter().next().unwrap() {
            stark_piglet::Output::Dump { lines, .. } => lines.len(),
            other => panic!("expected Dump, got {other:?}"),
        },
        other => panic!("expected Ok, got {other:?}"),
    };
    let a = count(client.query("default", "f = FILTER ev BY id < 10;\nDUMP f;", None).unwrap());
    let b = count(client.query("default", "f = FILTER ev BY id < 20;\nDUMP f;", None).unwrap());
    assert_eq!((a, b), (10, 20), "cached template must re-bind each request's literals");
}

#[test]
fn parse_errors_carry_position_and_token() {
    let server = start_server(ServerConfig::default(), 10);
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client.query("default", "f = FILTER ev BY id < 5;\ng = FILTRE f;", None).unwrap();
    match resp {
        Response::ParseError { line, column, token, message } => {
            assert_eq!(line, 2, "error is on the second line");
            assert!(column > 1, "column is 1-based and past the alias");
            assert!(!token.is_empty(), "offending token is named");
            assert!(!message.is_empty());
        }
        other => panic!("expected ParseError, got {other:?}"),
    }
    // the session survives the error
    assert!(matches!(client.query("default", "DUMP ev;", None).unwrap(), Response::Ok { .. }));
}

#[test]
fn unknown_tenant_is_typed() {
    let server = start_server(ServerConfig::default(), 10);
    let mut client = Client::connect(server.addr()).unwrap();
    match client.query("ghost", "DUMP ev;", None).unwrap() {
        Response::UnknownTenant { tenant } => assert_eq!(tenant, "ghost"),
        other => panic!("expected UnknownTenant, got {other:?}"),
    }
}

#[test]
fn admission_pressure_sheds_with_typed_overloaded() {
    // No workers: nothing drains, so queue slots fill deterministically.
    let config = ServerConfig {
        workers: 0,
        max_queue_depth: 2,
        tenants: vec![TenantConfig::new("t")],
        ..ServerConfig::default()
    };
    let server = start_server(config, 10);
    // each query blocks awaiting its (never-scheduled) worker, so fill
    // the queue from threads and probe from a fresh connection
    let addr = server.addr();
    let fillers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                // never completes; the connection drops with the test
                let _ = c.query("t", "DUMP ev;", Some(60_000));
            })
        })
        .collect();
    // wait until both fillers occupy their queue slots, so the probe
    // deterministically finds the queue full
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.queue_depth("t") != Some(2) {
        assert!(std::time::Instant::now() < deadline, "fillers never queued");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let mut probe = Client::connect(addr).unwrap();
    let shed = match probe.query("t", "DUMP ev;", Some(60_000)) {
        Ok(Response::Overloaded { message }) => message,
        other => panic!("expected Overloaded, got {other:?}"),
    };
    assert!(shed.contains("queue full"), "message names the cause: {shed}");
    drop(server); // shuts down; filler connections unblock
    for f in fillers {
        let _ = f.join();
    }
}

#[test]
fn tight_deadline_is_typed_deadline_exceeded() {
    let server = start_server(ServerConfig::default(), 200_000);
    let mut client = Client::connect(server.addr()).unwrap();
    // an ORDER over 200k rows cannot finish in 1ms
    let resp = client
        .query("default", "o = ORDER ev BY t;\nf = FILTER o BY id < 5;\nDUMP f;", Some(1))
        .unwrap();
    match resp {
        Response::DeadlineExceeded { message } => assert!(!message.is_empty()),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // same query with a generous deadline succeeds on the same session
    let resp = client
        .query("default", "o = ORDER ev BY t;\nf = FILTER o BY id < 5;\nDUMP f;", Some(60_000))
        .unwrap();
    assert!(matches!(resp, Response::Ok { .. }), "session recovers after a deadline abort");
}

#[test]
fn budget_exhaustion_degrades_only_the_starved_tenant() {
    let script = "f = FILTER ev BY id < 50;\nDUMP f;";

    // isolated run: the well-provisioned tenant alone
    let isolated_outputs = {
        let config = ServerConfig {
            tenants: vec![TenantConfig::new("roomy").weight(1)],
            ..ServerConfig::default()
        };
        let server = start_server(config, 1000);
        let mut client = Client::connect(server.addr()).unwrap();
        match client.query("roomy", script, None).unwrap() {
            Response::Ok { outputs, .. } => serde_json::to_vec(&outputs).unwrap(),
            other => panic!("expected Ok, got {other:?}"),
        }
    };

    // mixed run: a tenant with an 8-byte budget shares the server
    let config = ServerConfig {
        tenants: vec![
            TenantConfig::new("roomy").weight(1),
            TenantConfig::new("starved").weight(1).memory_cap(8),
        ],
        ..ServerConfig::default()
    };
    let server = start_server(config, 1000);
    let mut starved = Client::connect(server.addr()).unwrap();
    match starved.query("starved", script, None).unwrap() {
        Response::BudgetExceeded { message } => {
            assert!(message.contains("starved"), "error names the tenant: {message}");
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    let mut roomy = Client::connect(server.addr()).unwrap();
    match roomy.query("roomy", script, None).unwrap() {
        Response::Ok { outputs, .. } => {
            let mixed = serde_json::to_vec(&outputs).unwrap();
            assert_eq!(
                mixed, isolated_outputs,
                "the healthy tenant's results are byte-identical to an isolated run"
            );
        }
        other => panic!("expected Ok for the healthy tenant, got {other:?}"),
    }
    let stats = roomy.stats().unwrap();
    assert_eq!(stats.budget_exceeded, 1);
    assert_eq!(stats.queries_ok, 1);
}

#[test]
fn concurrent_sessions_share_the_cache() {
    let config = ServerConfig { workers: 4, ..ServerConfig::default() };
    let server = start_server(config, 500);
    let addr = server.addr();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let script = format!("f = FILTER ev BY id < {};\nDUMP f;", 10 + i);
                for _ in 0..5 {
                    match c.query("default", &script, Some(30_000)).unwrap() {
                        Response::Ok { .. } => {}
                        other => panic!("expected Ok, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let (hits, misses) = server.cache_stats();
    assert_eq!(hits + misses, 40);
    assert!(misses <= 8, "at most one miss per distinct shape race, got {misses}");
    assert!(hits >= 32, "all repeats hit, got {hits}");
}

/// Closed-loop sessions of literal-varying `FILTER … LIMIT … DUMP`
/// requests (the template the `service` benchmark workload sends) against
/// a shallow queue: every request is answered `Ok` or with a typed
/// `Overloaded`, never with an untyped failure.
#[test]
fn closed_loop_sessions_get_ok_or_typed_overloaded() {
    let config = ServerConfig { workers: 2, max_queue_depth: 2, ..ServerConfig::default() };
    let server = start_server(config, 500);
    let addr = server.addr();
    let sessions: Vec<_> = (0..4)
        .map(|s| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                (0..3)
                    .map(|r| {
                        let t = (s * 31 + r * 7) % 97;
                        let script = format!("f = FILTER ev BY t == {t};\nx = LIMIT f 5;\nDUMP x;");
                        c.query("default", &script, None).expect("typed response")
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let responses: Vec<Response> = sessions.into_iter().flat_map(|h| h.join().unwrap()).collect();
    assert_eq!(responses.len(), 12);
    assert!(
        responses.iter().all(|r| matches!(r, Response::Ok { .. } | Response::Overloaded { .. })),
        "only Ok or Overloaded: {responses:?}"
    );
    assert!(responses.iter().any(|r| matches!(r, Response::Ok { .. })), "none succeeded");
}
