//! Cross-crate property-based tests: physics invariants that must hold
//! for *any* generated layout, not just the hand-picked cases.

use ind101::circuit::ResilienceOptions;
use ind101::extract::operator::grid_kernel;
use ind101::extract::{FilamentGridSpec, ParallelConfig, PartialInductance};
use ind101::geom::generators::{generate_bus, BusSpec, ShieldPattern};
use ind101::geom::{um, Layout, Technology};
use ind101::loopind::{
    extract_loop_rl, extract_loop_rl_resilient, ExtractionBackend, LoopPortSpec,
};
use ind101::numeric::{Complex64, Fft, LinearOperator, Matrix, ToeplitzOperator2D};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ind101::peec::{InductanceMode, PeecModel, PeecParasitics};
use ind101::sparsify::block_diagonal::block_diagonal;
use ind101::sparsify::halo::halo_sparsify;
use ind101::sparsify::shell::shell_sparsify;
use ind101::sparsify::stability_report;
use ind101::sparsify::truncation::truncate_relative;
use proptest::prelude::*;

fn bus_strategy() -> impl Strategy<Value = BusSpec> {
    (
        1usize..6,           // signals
        500i64..3000,        // length µm
        1i64..6,             // spacing µm
        1i64..4,             // width µm
        prop::bool::ANY,     // shields on/off
    )
        .prop_map(|(signals, len_um, sp_um, w_um, shielded)| BusSpec {
            signals,
            length_nm: um(len_um),
            spacing_nm: um(sp_um),
            width_nm: um(w_um),
            shields: if shielded {
                ShieldPattern::Edges
            } else {
                ShieldPattern::None
            },
            tie_shields: shielded,
            ..BusSpec::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full partial-inductance matrix of any generated bus is
    /// symmetric positive definite — the passivity invariant that
    /// Section 4's sparsification must be measured against.
    #[test]
    fn partial_inductance_is_always_spd(spec in bus_strategy()) {
        let tech = Technology::example_copper_6lm();
        let bus = generate_bus(&tech, &spec);
        let l = PartialInductance::extract(&tech, bus.segments());
        prop_assert_eq!(l.matrix().symmetry_defect(), 0.0);
        prop_assert!(l.matrix().is_positive_definite());
        // Coupling coefficients below 1.
        for i in 0..l.len() {
            for j in (i + 1)..l.len() {
                let k = l.mutual(i, j) / (l.self_l(i) * l.self_l(j)).sqrt();
                prop_assert!(k < 1.0, "k({i},{j}) = {k}");
                prop_assert!(k >= 0.0);
            }
        }
    }

    /// Subdividing segments must preserve total resistance and total
    /// grounded capacitance (extraction is additive along a wire).
    #[test]
    fn subdivision_preserves_extraction_totals(
        spec in bus_strategy(),
        granularity_um in 100i64..1000,
    ) {
        let tech = Technology::example_copper_6lm();
        let bus = generate_bus(&tech, &spec);
        let coarse = PeecParasitics::extract(&bus, um(10_000));
        let fine = PeecParasitics::extract(&bus, um(granularity_um));
        let r_err = (coarse.total_resistance() - fine.total_resistance()).abs()
            / coarse.total_resistance();
        prop_assert!(r_err < 1e-9, "resistance additive: {r_err}");
        let c_err = (coarse.total_ground_cap() - fine.total_ground_cap()).abs()
            / coarse.total_ground_cap();
        prop_assert!(c_err < 1e-9, "capacitance additive: {c_err}");
    }

    /// Block-diagonal sparsification of an SPD matrix is SPD for any
    /// partition whatsoever.
    #[test]
    fn block_diagonal_spd_for_any_partition(
        spec in bus_strategy(),
        seed in 0u64..1000,
    ) {
        let tech = Technology::example_copper_6lm();
        let bus = generate_bus(&tech, &spec);
        let mut layout = bus.clone();
        layout.subdivide_segments(um(700));
        let l = PartialInductance::extract(&tech, layout.segments());
        // Pseudo-random partition into ≤ 4 sections.
        let mut s = seed;
        let labels: Vec<usize> = (0..l.len())
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((s >> 33) % 4) as usize
            })
            .collect();
        let sp = block_diagonal(&l, &labels);
        prop_assert!(
            stability_report(&sp.matrix).positive_definite,
            "partition must preserve PD"
        );
    }

    /// DC loop resistance from the AC extraction equals the series
    /// resistance of signal + return for a simple two-wire loop.
    #[test]
    fn loop_extraction_dc_resistance(len_um in 500i64..3000, sp_um in 1i64..10) {
        let tech = Technology::example_copper_6lm();
        let spec = BusSpec {
            signals: 1,
            length_nm: um(len_um),
            spacing_nm: um(sp_um),
            shields: ShieldPattern::Explicit(vec![1]),
            ..BusSpec::default()
        };
        let bus = generate_bus(&tech, &spec);
        let par = PeecParasitics::extract(&bus, um(len_um));
        let port = LoopPortSpec::from_layout(&par).expect("ports");
        let ext = extract_loop_rl(&par, &port, &[1e6]).expect("extract");
        let expect: f64 = par.resistance.iter().sum();
        prop_assert!(
            (ext.r_ohm[0] - expect).abs() / expect < 0.05,
            "loop R {} vs series {}",
            ext.r_ohm[0],
            expect
        );
    }

    /// The PEEC circuit of any bus is well-posed: the DC operating point
    /// exists and every node stays at a finite voltage.
    #[test]
    fn peec_model_dc_well_posed(spec in bus_strategy()) {
        let tech = Technology::example_copper_6lm();
        let bus = generate_bus(&tech, &spec);
        let par = PeecParasitics::extract(&bus, um(800));
        let model = PeecModel::build(&par, InductanceMode::Full).expect("model");
        let op = model.circuit.dc_op().expect("dc op");
        for v in op.unknowns() {
            prop_assert!(v.is_finite());
        }
    }

    /// Physical invariants of the partial-inductance matrix — exact
    /// symmetry, positive diagonal, and pairwise diagonal dominance
    /// `L_ii·L_jj ≥ L_ij²` (coupling coefficient ≤ 1) — hold for the
    /// full matrix AND survive every sparsification screen: a screen
    /// only zeroes off-diagonal terms, it must never break the physics
    /// of the terms it keeps.
    #[test]
    fn invariants_survive_every_sparsification(spec in bus_strategy()) {
        fn check_invariants(m: &Matrix<f64>, what: &str) -> Result<(), TestCaseError> {
            prop_assert_eq!(m.symmetry_defect(), 0.0, "{}: symmetric", what);
            let n = m.nrows();
            for i in 0..n {
                prop_assert!(m[(i, i)] > 0.0, "{}: diagonal {} positive", what, i);
                for j in (i + 1)..n {
                    prop_assert!(
                        m[(i, i)] * m[(j, j)] >= m[(i, j)] * m[(i, j)],
                        "{}: dominance at ({}, {})",
                        what, i, j
                    );
                }
            }
            Ok(())
        }
        let tech = Technology::example_copper_6lm();
        let bus = generate_bus(&tech, &spec);
        let l = PartialInductance::extract(&tech, bus.segments());
        check_invariants(l.matrix(), "full")?;
        check_invariants(&truncate_relative(&l, 0.3).matrix, "truncation")?;
        let labels: Vec<usize> = (0..l.len()).map(|k| k % 3).collect();
        check_invariants(&block_diagonal(&l, &labels).matrix, "block-diagonal")?;
        check_invariants(&shell_sparsify(&l, 5e-6).matrix, "shell")?;
        check_invariants(&halo_sparsify(&l, &bus).matrix, "halo")?;
    }

    /// The parallel extraction engine is bit-identical to the serial
    /// reference on any generated bus, at several thread counts — the
    /// end-to-end determinism guarantee of the row-block scheduler and
    /// the GMD cache.
    #[test]
    fn parallel_extraction_deterministic_on_any_bus(spec in bus_strategy()) {
        let tech = Technology::example_copper_6lm();
        let mut layout: Layout = generate_bus(&tech, &spec);
        layout.subdivide_segments(um(900));
        let reference = PartialInductance::extract_serial(&tech, layout.segments());
        for threads in [2usize, 8] {
            let cfg = ParallelConfig::with_threads(threads);
            let par = PartialInductance::extract_with(&tech, layout.segments(), &cfg);
            let same = reference
                .matrix()
                .as_slice()
                .iter()
                .zip(par.matrix().as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            prop_assert!(same, "threads = {}", threads);
        }
    }

    /// FFT round trip is the identity to 1e-12 for any power-of-two
    /// length and any data.
    #[test]
    fn fft_round_trip_is_identity(exp in 0u32..11, seed in 0u64..1 << 20) {
        let n = 1usize << exp;
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let fft = Fft::new(n).expect("power of two");
        let mut y = x.clone();
        fft.forward(&mut y).expect("len matches");
        fft.inverse(&mut y).expect("len matches");
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() <= 1e-12, "n = {}: {:?} vs {:?}", n, a, b);
        }
    }

    /// Parseval: the transform preserves energy up to the 1/n inverse
    /// scaling, `Σ|xᵢ|² = (1/n)·Σ|Xₖ|²`.
    #[test]
    fn fft_satisfies_parseval(exp in 1u32..11, seed in 0u64..1 << 20) {
        let n = 1usize << exp;
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let time: f64 = x.iter().map(|v| v.abs() * v.abs()).sum();
        let fft = Fft::new(n).expect("power of two");
        let mut xf = x;
        fft.forward(&mut xf).expect("len matches");
        let freq: f64 = xf.iter().map(|v| v.abs() * v.abs()).sum::<f64>() / n as f64;
        prop_assert!(
            (time - freq).abs() <= 1e-12 * time.max(1.0),
            "n = {}: {} vs {}",
            n, time, freq
        );
    }

    /// The circulant-embedded block-Toeplitz matvec equals the dense
    /// symmetric-Toeplitz matvec for any grid shape, pitch, and input —
    /// on the real extraction kernel, not a synthetic one.
    #[test]
    fn toeplitz_matvec_matches_dense(
        count_z in 1usize..4,
        count_lat in 1usize..14,
        pitch_z_um in 1i64..4,
        pitch_lat_um in 2i64..7,
        seed in 0u64..1 << 20,
    ) {
        let spec = FilamentGridSpec {
            count_z,
            count_lat,
            pitch_z_nm: um(pitch_z_um),
            pitch_lat_nm: um(pitch_lat_um),
            length_nm: um(400),
            width_nm: um(1),
            thickness_nm: 500,
        };
        let kernel = grid_kernel(&spec, None).expect("valid spec");
        let op = ToeplitzOperator2D::new(count_z, count_lat, &kernel).expect("valid kernel");
        let dense = op.to_dense_kernel(&kernel);
        let n = count_z * count_lat;
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut fast = vec![0.0; n];
        LinearOperator::<f64>::apply(&op, &x, &mut fast);
        let mut slow = vec![0.0; n];
        LinearOperator::<f64>::apply(&dense, &x, &mut slow);
        let scale = slow.iter().map(|v| v.abs()).fold(f64::MIN_POSITIVE, f64::max);
        for (f, s) in fast.iter().zip(&slow) {
            prop_assert!(
                (f - s).abs() <= 1e-12 * scale,
                "{}x{}: {} vs {}",
                count_z, count_lat, f, s
            );
        }
    }

    /// Loop R(f)/L(f) is backend-independent: the matrix-free Krylov
    /// path agrees with the dense direct oracle to 1e-8 on any
    /// generated bus with a return path.
    #[test]
    fn loop_extraction_backend_independent(
        signals in 1usize..4,
        len_um in 400i64..1500,
        sp_um in 1i64..5,
        tie in prop::bool::ANY,
    ) {
        let tech = Technology::example_copper_6lm();
        let spec = BusSpec {
            signals,
            length_nm: um(len_um),
            spacing_nm: um(sp_um),
            shields: ShieldPattern::Explicit(vec![1]),
            tie_shields: tie,
            ..BusSpec::default()
        };
        let bus = generate_bus(&tech, &spec);
        let par = PeecParasitics::extract(&bus, um(len_um));
        let port = LoopPortSpec::from_layout(&par).expect("ports");
        let freqs = [1e8, 2e9, 3e10];
        let cfg = ParallelConfig::default();
        let extract = |backend| {
            extract_loop_rl_resilient(&par, &port, &freqs, &cfg, backend, &ResilienceOptions::strict())
                .map(|got| got.extraction)
        };
        let dense = extract(ExtractionBackend::Dense).expect("dense");
        let mf = extract(ExtractionBackend::MatrixFree).expect("matrix-free");
        for i in 0..freqs.len() {
            let (rd, ld) = dense.at(i);
            let (rm, lm) = mf.at(i);
            prop_assert!(
                (rd - rm).abs() <= 1e-8 * rd.abs().max(1.0),
                "R at {}: {} vs {}",
                freqs[i], rd, rm
            );
            prop_assert!(
                (ld - lm).abs() <= 1e-8 * ld.abs(),
                "L at {}: {:e} vs {:e}",
                freqs[i], ld, lm
            );
        }
    }

    /// Mutual inductance between the first two bus wires decreases
    /// monotonically as the spacing grows (all else fixed).
    #[test]
    fn mutual_monotone_in_spacing(len_um in 500i64..2000) {
        let tech = Technology::example_copper_6lm();
        let mut prev = f64::INFINITY;
        for sp_um in [1i64, 3, 9, 27] {
            let spec = BusSpec {
                signals: 2,
                length_nm: um(len_um),
                spacing_nm: um(sp_um),
                ..BusSpec::default()
            };
            let bus = generate_bus(&tech, &spec);
            let l = PartialInductance::extract(&tech, bus.segments());
            let m = l.mutual(0, 1);
            prop_assert!(m < prev, "M must fall with spacing");
            prop_assert!(m > 0.0);
            prev = m;
        }
    }
}
