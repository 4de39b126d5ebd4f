//! GRID — DC-operating-point solve scaling on power-grid meshes,
//! comparing the circuit engine's solver backends.
//!
//! ```text
//! cargo run --release -p ind101-bench --bin grid_scaling \
//!     [--backend dense|sparse|auto|all] [--quick] [--out PATH]
//! ```
//!
//! Two stages share one JSON output:
//!
//! * `dcop_<backend>/<unknowns>` — square resistive P/G meshes pushed
//!   through the full circuit engine (`dc_op`) per [`SolverBackend`];
//! * `splu_scalar/<n>` and `splu_super/<n>` — matrix-level refactor +
//!   solve on MNA mesh systems up to ~10⁵ unknowns, pitting the KLU
//!   path (BTF + supernodal GEMM panels) against the scalar reference
//!   sparse LU that PR 5 shipped. The `splu_super` rows also carry the
//!   symbolic fill/supernode statistics.
//!
//! The committed JSON is the scaling record behind the EXPERIMENTS.md
//! entry; CI re-runs the sweep in `--quick` mode and asserts the sparse
//! backend keeps its ≥5× lead over dense, the supernodal path stays
//! ahead of the scalar one at the largest swept sizes, and `auto` stays
//! within 1.15× of forced `sparse` (so those two alternate sample by
//! sample).
//!
//! Every sparse solve is cross-checked against the dense oracle before
//! timing, so a silently wrong factorization fails the run rather than
//! producing a fast-but-bogus number.

use ind101_circuit::{Circuit, NodeId, SolverBackend, SourceWave};
use ind101_numeric::{SparseLu, SymbolicLu, Triplets};
use std::sync::Arc;
use std::time::Instant;

/// One timed configuration.
struct Row {
    id: String,
    min_ns: f64,
    median_ns: f64,
    mean_ns: f64,
    samples: usize,
    /// Extra JSON fields (symbolic statistics on `splu_super` rows).
    extra: String,
}

/// Builds a `w × w` resistive power mesh: 0.5 Ω rail segments, pad
/// voltage sources at the four corners, and a distributed load current
/// drawn from every interior node (the classic IR-drop testcase).
fn power_mesh(w: usize) -> Circuit {
    let mut c = Circuit::new();
    let nodes: Vec<Vec<NodeId>> = (0..w)
        .map(|i| (0..w).map(|j| c.node(format!("g{i}_{j}"))).collect())
        .collect();
    for i in 0..w {
        for j in 0..w {
            if i + 1 < w {
                c.resistor(nodes[i][j], nodes[i + 1][j], 0.5);
            }
            if j + 1 < w {
                c.resistor(nodes[i][j], nodes[i][j + 1], 0.5);
            }
        }
    }
    for (i, j) in [(0, 0), (0, w - 1), (w - 1, 0), (w - 1, w - 1)] {
        c.vsrc(nodes[i][j], Circuit::GND, SourceWave::dc(1.8));
    }
    // ~10 mA total load, spread over the interior.
    let interior = (w - 2) * (w - 2);
    let per_node = 10e-3 / interior as f64;
    for i in 1..w - 1 {
        for j in 1..w - 1 {
            c.isrc(nodes[i][j], Circuit::GND, SourceWave::dc(per_node));
        }
    }
    c
}

/// Times `dc_op` under each of `backends`: one warm-up (and
/// correctness) run each, then `samples` rounds that time every backend
/// once in turn. A host-speed shift during the run therefore reads on
/// all of them alike, not as a ratio between them.
fn time_dcop(
    c: &Circuit,
    backends: &[SolverBackend],
    samples: usize,
) -> Vec<(Row, Vec<f64>, usize)> {
    let circuits: Vec<Circuit> = backends
        .iter()
        .map(|&b| {
            let mut cb = c.clone();
            cb.set_solver_backend(b);
            cb
        })
        .collect();
    let ops: Vec<_> = circuits
        .iter()
        .map(|cb| cb.dc_op().expect("dc_op"))
        .collect();
    let mut times = vec![Vec::with_capacity(samples); backends.len()];
    for _ in 0..samples {
        for ((cb, op), t) in circuits.iter().zip(&ops).zip(&mut times) {
            let t0 = Instant::now();
            let again = cb.dc_op().expect("dc_op");
            t.push(t0.elapsed().as_nanos() as f64);
            assert_eq!(again.unknowns().len(), op.unknowns().len());
        }
    }
    backends
        .iter()
        .zip(ops)
        .zip(times)
        .map(|((b, op), mut times)| {
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let n = op.unknowns().len();
            let row = Row {
                id: format!("dcop_{}/{}", b.name(), n),
                min_ns: times[0],
                median_ns: times[times.len() / 2],
                mean_ns: times.iter().sum::<f64>() / times.len() as f64,
                samples,
                extra: String::new(),
            };
            (row, op.unknowns().to_vec(), n)
        })
        .collect()
}

/// Builds the MNA system of a `w × w` conductance mesh with four
/// corner voltage-source rows (structurally zero branch diagonals —
/// the pattern that exercises the BTF transversal): `n = w² + 4`.
fn mesh_mna(w: usize) -> Triplets {
    let nn = w * w;
    let n = nn + 4;
    let idx = |i: usize, j: usize| i * w + j;
    let mut t = Triplets::new(n, n);
    for i in 0..w {
        for j in 0..w {
            let a = idx(i, j);
            t.push(a, a, 0.05); // ground leak keeps the mesh well posed
            if i + 1 < w {
                let b = idx(i + 1, j);
                t.push(a, a, 2.0);
                t.push(b, b, 2.0);
                t.push(a, b, -2.0);
                t.push(b, a, -2.0);
            }
            if j + 1 < w {
                let b = idx(i, j + 1);
                t.push(a, a, 2.0);
                t.push(b, b, 2.0);
                t.push(a, b, -2.0);
                t.push(b, a, -2.0);
            }
        }
    }
    for (k, (i, j)) in [(0, 0), (0, w - 1), (w - 1, 0), (w - 1, w - 1)]
        .into_iter()
        .enumerate()
    {
        let r = nn + k;
        let p = idx(i, j);
        t.push(r, p, 1.0);
        t.push(p, r, 1.0);
    }
    t
}

/// Times numeric refactor + solve on a prebuilt symbolic pattern (the
/// transient-stepping hot path); the one-time `analyze` stays outside
/// the loop.
fn time_splu(
    label: &str,
    sym: Arc<SymbolicLu>,
    csr: &ind101_numeric::CsrMatrix<f64>,
    samples: usize,
) -> (Row, Vec<f64>) {
    let n = csr.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.43).sin() + 0.2).collect();
    let stats = sym.stats();
    let mut lu = SparseLu::factor_with(Arc::clone(&sym), csr).expect("factor");
    let mut x = lu.solve(&b).expect("solve");
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            lu.refactor(csr).expect("refactor");
            x = lu.solve(&b).expect("solve");
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let extra = if label == "splu_super" {
        format!(
            ", \"factor_nnz\": {}, \"num_blocks\": {}, \"max_block_dim\": {}, \"num_supernodes\": {}, \"max_supernode_width\": {}",
            stats.factor_nnz,
            stats.num_blocks,
            stats.max_block_dim,
            stats.num_supernodes,
            stats.max_supernode_width
        )
    } else {
        String::new()
    };
    let row = Row {
        id: format!("{label}/{n}"),
        min_ns: times[0],
        median_ns: times[times.len() / 2],
        mean_ns: times.iter().sum::<f64>() / times.len() as f64,
        samples,
        extra,
    };
    (row, x)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut backend_arg = "all".to_owned();
    let mut quick = false;
    let mut out = format!("{}/BENCH_grid_scaling.json", env!("CARGO_MANIFEST_DIR"));
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--backend" => {
                backend_arg = it.next().expect("--backend needs a value").clone();
            }
            "--quick" => quick = true,
            "--out" => out = it.next().expect("--out needs a value").clone(),
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: grid_scaling [--backend dense|sparse|auto|all] [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let backends: Vec<SolverBackend> = match backend_arg.as_str() {
        "all" => vec![SolverBackend::Dense, SolverBackend::Sparse, SolverBackend::Auto],
        one => vec![SolverBackend::parse(one).unwrap_or_else(|| {
            eprintln!("unknown backend {one:?}; use dense|sparse|auto|all");
            std::process::exit(2);
        })],
    };
    let widths: &[usize] = if quick { &[18, 32] } else { &[18, 28, 40, 52] };

    println!("== grid_scaling: DC-op solve vs power-grid size ==");
    let mut rows: Vec<Row> = Vec::new();
    for &w in widths {
        let c = power_mesh(w);
        let samples = if w >= 40 { 3 } else { 5 };
        let mut oracle: Option<Vec<f64>> = None;
        // Dense times its samples back to back. Sparse and auto alternate
        // sample by sample, so CI's bound on their ratio measures the
        // backends, not a host-speed shift between two blocks of samples;
        // with dense in the rotation every sample would follow a much
        // longer dense one.
        let (dense, rest): (Vec<SolverBackend>, Vec<SolverBackend>) =
            backends.iter().partition(|&&b| b == SolverBackend::Dense);
        for group in [dense, rest] {
            for (b, (row, x, n)) in group.iter().copied().zip(time_dcop(&c, &group, samples)) {
                // Cross-check every backend against the first one timed at
                // this size (dense when running the full matrix).
                match &oracle {
                    None => oracle = Some(x),
                    Some(x0) => {
                        let scale = x0.iter().fold(1.0f64, |m, v| m.max(v.abs()));
                        for (k, (a, bb)) in x0.iter().zip(&x).enumerate() {
                            assert!(
                                (a - bb).abs() <= 1e-8 * scale,
                                "backend {} disagrees with oracle at unknown {k}",
                                b.name()
                            );
                        }
                    }
                }
                println!(
                    "  {:>5} unknowns  {:>6}  min {:>10.3} ms  (median {:.3} ms, {} samples)",
                    n,
                    b.name(),
                    row.min_ns / 1e6,
                    row.median_ns / 1e6,
                    row.samples
                );
                rows.push(row);
            }
        }
    }

    // Matrix-level sparse-LU scaling: scalar reference vs supernodal
    // BTF path on the same patterns, cross-checked before timing.
    let splu_widths: &[usize] = if quick { &[32, 100] } else { &[32, 60, 100, 180, 320] };
    println!("== grid_scaling: sparse LU refactor+solve vs MNA mesh size ==");
    for &w in splu_widths {
        let csr = mesh_mna(w).to_csr();
        let n = csr.nrows();
        let samples = if n >= 30_000 { 3 } else { 5 };
        let scalar_sym = Arc::new(SymbolicLu::analyze_reference(&csr).expect("analyze_reference"));
        let super_sym = Arc::new(SymbolicLu::analyze(&csr).expect("analyze"));
        let (scalar_row, x_scalar) = time_splu("splu_scalar", scalar_sym, &csr, samples);
        let (super_row, x_super) = time_splu("splu_super", super_sym, &csr, samples);
        let scale = x_scalar.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (k, (a, b)) in x_scalar.iter().zip(&x_super).enumerate() {
            assert!(
                (a - b).abs() <= 1e-8 * scale,
                "supernodal path disagrees with scalar reference at unknown {k}"
            );
        }
        println!(
            "  {:>6} unknowns  scalar min {:>10.3} ms   super min {:>10.3} ms   ({:.2}x)",
            n,
            scalar_row.min_ns / 1e6,
            super_row.min_ns / 1e6,
            scalar_row.min_ns / super_row.min_ns
        );
        rows.push(scalar_row);
        rows.push(super_row);
    }

    // Criterion-compatible JSON, hand-rolled (no serde in this tree).
    let mut body = String::from("{\n  \"group\": \"grid_scaling\",\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"id\": \"{}\", \"min_ns\": {:.1}, \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"samples\": {}{}}}{}\n",
            r.id,
            r.min_ns,
            r.median_ns,
            r.mean_ns,
            r.samples,
            r.extra,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(&out, body).expect("write bench json");
    println!("wrote {out}");

    // Report the headline ratio when both contenders ran.
    let min_of = |prefix: &str| -> Option<(usize, f64)> {
        rows.iter()
            .filter_map(|r| {
                let (name, n) = r.id.split_once('/')?;
                (name == prefix).then(|| (n.parse::<usize>().ok(), r.min_ns))
            })
            .filter_map(|(n, t)| n.map(|n| (n, t)))
            .max_by_key(|&(n, _)| n)
    };
    if let (Some((n, dense)), Some((_, sparse))) = (min_of("dcop_dense"), min_of("dcop_sparse")) {
        println!(
            "largest grid ({n} unknowns): sparse is {:.1}x faster than dense",
            dense / sparse
        );
    }
    if let (Some((n, scalar)), Some((_, sup))) = (min_of("splu_scalar"), min_of("splu_super")) {
        println!(
            "largest mesh ({n} unknowns): supernodal LU is {:.1}x faster than scalar",
            scalar / sup
        );
    }
}
