//! Every workload runs clean on seeds 1–5 with one iteration, and the
//! seed-1 outputs match `reference.json`.
//!
//! To regenerate the reference after an intended numerical change:
//!
//! ```text
//! UPDATE_REFERENCE=1 cargo test --manifest-path flowbench/Cargo.toml --test seeds reference
//! ```
//!
//! then review the diff of `flowbench/reference.json`.

use flowbench::harness::RunConfig;
use flowbench::reference::{parse_reference, render_reference, REFERENCE_JSON};
use flowbench::{run_workload, WORKLOADS};

fn run_clean(workload: &str, seed: u64) {
    let run = run_workload(workload, &RunConfig::quick(seed)).unwrap();
    let r = &run.record;
    assert!(r.correct(), "{workload} seed {seed}: {:?}", r.failures);
    assert!(r.attempted >= 1);
    for name in ["setup_s", "iter_s"] {
        let m = r
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        assert!(m.value > 0.0, "{workload}: {name} = {}", m.value);
    }
}

#[test]
fn reference_is_current() {
    let update = std::env::var("UPDATE_REFERENCE").as_deref() == Ok("1");
    let mut reference = parse_reference(REFERENCE_JSON).unwrap();
    for w in WORKLOADS {
        if !update {
            run_clean(w, 1);
            continue;
        }
        let run = run_workload(w, &RunConfig::quick(1)).unwrap();
        reference.retain(|k, _| !k.starts_with(&format!("{w}.")));
        for o in run.outputs {
            reference.insert(format!("{w}.{}", o.key), (o.value, o.rtol));
        }
    }
    if update {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json");
        std::fs::write(path, render_reference(&reference)).unwrap();
    }
}

#[test]
fn table1_seeds_2_to_5() {
    (2..=5).for_each(|s| run_clean("table1_peec", s));
}

#[test]
fn loop_rl_seeds_2_to_5() {
    (2..=5).for_each(|s| run_clean("loop_rl", s));
}

#[test]
fn sec4_seeds_2_to_5() {
    (2..=5).for_each(|s| run_clean("sec4_sparsify", s));
}

#[test]
fn deck_serve_seeds_2_to_5() {
    (2..=5).for_each(|s| run_clean("deck_serve", s));
}
