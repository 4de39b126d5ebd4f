//! Job-server behavioral tests: cache accounting, content-hash
//! invalidation, concurrent determinism, budget refusal, and
//! cancellation.

use ind101_netlist::{
    jobs_from_str, DeckSource, FilamentGridJob, JobFile, JobOptions, JobRequest, JobSpec,
    LoopBusJob,
};
use ind101_serve::{JobOutcome, JobServer, ServeError, SolverBackend};
use ind101_numeric::CancelToken;
use std::sync::Arc;

const RC_DECK: &str = "rc\nV1 in 0 DC 1 AC 1\nR1 in out 1k\nC1 out 0 1p\n.OP\n.AC DEC 2 1e8 1e10\n";

fn deck_job(name: &str, deck: &str) -> JobRequest {
    JobRequest {
        name: name.to_owned(),
        spec: JobSpec::Deck(DeckSource::Inline(deck.to_owned())),
        options: JobOptions::default(),
    }
}

/// Two identical decks under different names: one solve, one hit, and
/// both callers receive the very same allocation.
#[test]
fn identical_jobs_share_one_solve() {
    let server = JobServer::new();
    let file = JobFile {
        threads: Some(2),
        jobs: vec![deck_job("first", RC_DECK), deck_job("second", RC_DECK)],
    };
    let results = server.run_file(&file);
    assert_eq!(results.len(), 2);
    let a = results[0].outcome.as_ref().unwrap();
    let b = results[1].outcome.as_ref().unwrap();
    assert!(Arc::ptr_eq(a, b), "cache must hand out the same result");
    let stats = server.stats();
    assert_eq!(stats.cache_misses, 1, "one unique deck, one solve");
    assert_eq!(stats.cache_hits, 1, "the twin must hit");
    // Exactly one of the two was served from cache (scheduling decides
    // which).
    assert_eq!(
        results.iter().filter(|r| r.cached).count(),
        1,
        "exactly one cached result"
    );
}

/// Changing one character of the deck — or one option token — changes
/// the content hash, so nothing is reused.
#[test]
fn one_token_invalidates() {
    let server = JobServer::new();
    let (r1, cached1) = server.run_job(&deck_job("a", RC_DECK));
    assert!(r1.is_ok() && !cached1);

    // Same deck again: hit.
    let (_, cached2) = server.run_job(&deck_job("b", RC_DECK));
    assert!(cached2);

    // One value token edited: miss.
    let edited = RC_DECK.replace("R1 in out 1k", "R1 in out 2k");
    let (r3, cached3) = server.run_job(&deck_job("c", &edited));
    assert!(r3.is_ok() && !cached3, "edited deck must re-solve");

    // Same deck, different solver options: miss.
    let mut job = deck_job("d", RC_DECK);
    job.options.backend = SolverBackend::Dense;
    let (r4, cached4) = server.run_job(&job);
    assert!(r4.is_ok() && !cached4, "changed options must re-solve");

    assert_eq!(server.stats().cache_misses, 3);
    assert_eq!(server.stats().cache_hits, 1);
}

/// The same file run at 1 and 4 workers produces identical outcomes
/// in identical (submission) order.
#[test]
fn concurrent_submission_is_deterministic() {
    let decks: Vec<String> = (0..6)
        .map(|i| {
            format!(
                "job {i}\nV1 in 0 DC 1 AC 1\nR1 in out {r}\nC1 out 0 1p\nL1 out tail 1n\n\
                 R2 tail 0 50\n.OP\n.AC DEC 2 1e8 1e10\n",
                r = 100 * (i + 1)
            )
        })
        .collect();
    let run = |threads: usize| {
        let server = JobServer::new();
        let file = JobFile {
            threads: Some(threads),
            jobs: decks
                .iter()
                .enumerate()
                .map(|(i, d)| deck_job(&format!("j{i}"), d))
                .collect(),
        };
        server
            .run_file(&file)
            .into_iter()
            .map(|r| (r.name, r.outcome.unwrap()))
            .collect::<Vec<_>>()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.len(), parallel.len());
    for ((an, ao), (bn, bo)) in serial.iter().zip(&parallel) {
        assert_eq!(an, bn, "order must match submission order");
        assert_eq!(ao, bo, "{an}: outcome must not depend on thread count");
    }
}

/// A memory budget smaller than the dense grid stamp refuses the job
/// with a typed budget error before any extraction work.
#[test]
fn tiny_memory_budget_refuses_grid_job() {
    let server = JobServer::new();
    let grid = FilamentGridJob {
        count_z: 4,
        count_lat: 16,
        pitch_z_nm: 200,
        pitch_lat_nm: 400,
        length_nm: 100_000,
        width_nm: 200,
        thickness_nm: 100,
    };
    let mut job = JobRequest {
        name: "grid".to_owned(),
        spec: JobSpec::FilamentGrid(grid),
        options: JobOptions::default(),
    };
    job.options.memory_bytes = Some(64);
    let (res, cached) = server.run_job(&job);
    assert!(!cached);
    match res {
        Err(ServeError::Budget { job, .. }) => assert_eq!(job, "grid"),
        other => panic!("expected Budget refusal, got {other:?}"),
    }
    // Failures are not cached: lifting the budget solves the same spec.
    job.options.memory_bytes = None;
    let (res, cached) = server.run_job(&job);
    assert!(!cached);
    let outcome = res.unwrap();
    match outcome.as_ref() {
        JobOutcome::FilamentGrid(g) => {
            assert_eq!(g.filaments, 64);
            assert!(g.l_self_min > 0.0 && g.l_self_max >= g.l_self_min);
        }
        other => panic!("expected grid outcome, got {other:?}"),
    }
    // And the grid jobs exercised the shared GMD cache.
    let stats = server.stats();
    assert!(stats.gmd.hits + stats.gmd.misses > 0, "GMD cache untouched");
}

/// A pre-cancelled token stops the AC sweep before any frequency is
/// solved: the caller gets the partial result (zero solved points), but
/// the cache does not keep it. The key does not include the token, so
/// the next identical job without one is a miss that solves every
/// frequency, and only that complete answer is reused.
#[test]
fn pre_cancelled_sweep_is_returned_but_not_cached() {
    let ac_solved = |outcome: &JobOutcome| match outcome {
        JobOutcome::Deck(d) => d.ac_solved.unwrap(),
        other => panic!("expected deck outcome, got {other:?}"),
    };
    let server = JobServer::new();
    let token = CancelToken::new();
    token.cancel();
    let mut job = deck_job("sweep", RC_DECK);
    // Skip-and-report turns budget/cancel stops into partial results.
    job.options.policy = ind101_serve::FailurePolicy::SkipAndReport;
    let (res, cached) = server.run_job_with(&job, Some(&token));
    assert!(!cached);
    assert_eq!(ac_solved(&res.unwrap()), (0, 5));
    let (res, cached) = server.run_job(&job);
    assert!(!cached, "a stopped sweep must not be served from the cache");
    let complete = res.unwrap();
    assert_eq!(ac_solved(&complete), (5, 5));
    let (res, cached) = server.run_job(&job);
    assert!(cached, "the complete sweep is cached");
    assert!(Arc::ptr_eq(&res.unwrap(), &complete));
    let stats = server.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 2));

    // The same for a loop-bus extraction.
    let bus = JobRequest {
        name: "bus".to_owned(),
        spec: JobSpec::LoopBus(LoopBusJob {
            signals: 2,
            length_nm: 200_000,
            spacing_nm: 1000,
            freqs_hz: vec![1e8, 1e9],
        }),
        options: job.options.clone(),
    };
    let freqs = |outcome: &JobOutcome| match outcome {
        JobOutcome::LoopBus(b) => b.freqs_hz.len(),
        other => panic!("expected loop-bus outcome, got {other:?}"),
    };
    let (res, _) = server.run_job_with(&bus, Some(&token));
    assert_eq!(freqs(&res.unwrap()), 0);
    let (res, cached) = server.run_job(&bus);
    assert!(
        !cached,
        "a stopped extraction must not be served from the cache"
    );
    assert_eq!(freqs(&res.unwrap()), 2);
    assert!(server.run_job(&bus).1);
}

/// Decks with the same topology but different values share one
/// symbolic-LU pattern; a different topology adds a second.
#[test]
fn symbolic_patterns_are_shared_by_topology() {
    // A ladder long enough (> 48 MNA unknowns) that the sparse path
    // performs (and caches) a symbolic analysis.
    let ladder = |r: u32, extra: bool| {
        let mut d = String::from("ladder\nV1 n0 0 DC 1 AC 1\n");
        for i in 0..60 {
            d += &format!("R{i} n{i} n{} {r}\n", i + 1);
            d += &format!("C{i} n{} 0 1f\n", i + 1);
        }
        if extra {
            d += "R999 n60 0 1k\n";
        }
        d += ".AC DEC 1 1e9 1e10\n";
        d
    };
    let server = JobServer::new();
    let mk = |name: &str, deck: &str| {
        let mut j = deck_job(name, deck);
        j.options.backend = SolverBackend::Sparse;
        j
    };
    server.run_job(&mk("a", &ladder(100, false))).0.unwrap();
    server.run_job(&mk("b", &ladder(220, false))).0.unwrap();
    assert_eq!(
        server.stats().lu_patterns,
        1,
        "same topology must share one pattern"
    );
    server.run_job(&mk("c", &ladder(100, true))).0.unwrap();
    assert_eq!(server.stats().lu_patterns, 2, "new topology, new pattern");
}

/// Two decks with one topology and different values: the second
/// deck's `.OP` takes the DC analysis the first one cached (the solver
/// then analyzes nothing, see `dc_op_with`'s hint), and its outcome is
/// the one a fresh server, which analyzes, returns. DC patterns are
/// cached apart from AC ones, and a new topology adds one.
#[test]
fn op_reuses_the_dc_pattern_of_an_identical_topology() {
    let ladder = |r: u32, extra: bool| {
        let mut d = String::from("ladder\nV1 n0 0 DC 1\n");
        for i in 0..60 {
            d += &format!("R{i} n{i} n{} {r}\n", i + 1);
            d += &format!("RG{i} n{} 0 {}\n", i + 1, 40 * r);
        }
        if extra {
            d += "R999 n60 n3 1k\n";
        }
        d += ".OP\n";
        d
    };
    let mk = |name: &str, deck: &str| {
        let mut j = deck_job(name, deck);
        j.options.backend = SolverBackend::Sparse;
        j
    };
    let op_max = |server: &JobServer, job: &JobRequest| match server.run_job(job).0.unwrap().as_ref() {
        JobOutcome::Deck(report) => report.op_max_v.unwrap(),
        other => panic!("expected a deck outcome, got {other:?}"),
    };
    let server = JobServer::new();
    op_max(&server, &mk("a", &ladder(100, false)));
    assert_eq!(server.stats().dc_patterns, 1);
    let second = mk("b", &ladder(220, false));
    let reused = op_max(&server, &second);
    let stats = server.stats();
    assert_eq!((stats.dc_patterns, stats.lu_patterns), (1, 0), "one DC pattern, no AC one");
    assert_eq!(reused.to_bits(), op_max(&JobServer::new(), &second).to_bits());
    op_max(&server, &mk("c", &ladder(100, true)));
    assert_eq!(server.stats().dc_patterns, 2, "new topology, new pattern");
}

/// End-to-end through the JSON job-file front door: mixed job kinds,
/// submission-order results. (Inline decks need `\n` escapes, which
/// the TOML subset deliberately rejects — JSON is the inline route.)
#[test]
fn json_job_file_end_to_end() {
    let src = r#"{
  "threads": 2,
  "jobs": [
    {"name": "divider", "kind": "deck",
     "deck": "t\nV1 a 0 DC 2\nR1 a b 1k\nR2 b 0 1k\n.OP\n"},
    {"name": "bus", "kind": "loop_bus",
     "signals": 2, "length_nm": 200000, "spacing_nm": 1000,
     "freqs_hz": [1e9]}
  ]
}"#;
    let file = jobs_from_str(src).unwrap();
    let server = JobServer::new();
    let results = server.run_file(&file);
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].name, "divider");
    match results[0].outcome.as_ref().unwrap().as_ref() {
        JobOutcome::Deck(d) => {
            let v = d.op_max_v.unwrap();
            assert!((v - 2.0).abs() < 1e-6, "source node pins max |V|, got {v}");
        }
        other => panic!("expected deck outcome, got {other:?}"),
    }
    assert_eq!(results[1].name, "bus");
    match results[1].outcome.as_ref().unwrap().as_ref() {
        JobOutcome::LoopBus(b) => {
            assert_eq!(b.freqs_hz, vec![1e9]);
            assert!(b.l_h[0] > 0.0, "loop inductance must be positive");
            assert!(b.r_ohm[0] > 0.0, "loop resistance must be positive");
        }
        other => panic!("expected loop-bus outcome, got {other:?}"),
    }
}
