//! `deck_serve`: a closed loop of `JobServer::run_job` calls — one
//! client, no think time, a seeded job stream starting from cold
//! caches.
//!
//! It exercises the deck frontend, the verify gate, the server's three
//! caches and sparse AC solves at 10²–10³ unknowns; transient and loop
//! work are near zero. `ind101-serve` is a batch runner (networked
//! serving is deferred), so the workload reports throughput and latency
//! rather than a rate sweep.
//!
//! Every batch of [`BATCH_JOBS`] jobs has the same mix: 30 % repeats of
//! earlier jobs (result-cache hits) and 70 % fresh jobs — Table-1 deck
//! variants (new values, same structure, so the symbolic-LU pattern is
//! reused), Section-4 bus deck variants, filament-grid extractions
//! (sharing GMD kernels), bus loop extractions and malformed decks.
//!
//! The mix and the value jitter are assumptions, not measurements: the
//! server has no users yet and no job trace exists. `jobs_per_s` and
//! the `job_latency_ms` percentiles hold for this mix only. The traced
//! run reports the latency of each job kind, hit and miss, so the
//! numbers can be re-weighted for another mix.

use crate::geometry::ClockGeometry;
use crate::harness::{Checks, Ctx, Workload, PROBE_ITER};
use crate::record::Metric;
use crate::sec4::{bus_circuit, bus_spec};
use crate::stats::{median, percentile, quartered, Rng};
use crate::trace::Tracer;
use ind101_circuit::{Circuit, SolverBackend};
use ind101_core::testbench::{build_testbench, DriverKind, TestbenchSpec};
use ind101_core::{InductanceMode, PeecParasitics};
use ind101_extract::{FilamentGridSpec, GridInductanceOperator, PartialInductance};
use ind101_geom::generators::{generate_bus, BusSpec};
use ind101_geom::Technology;
use ind101_loop::{extract_loop_rl, LoopPortSpec};
use ind101_netlist::{
    export_deck, flatten, format_value, lower_flat, parse_deck, AcSweep, AnalysisCard,
    AnalysisPlan, DeckSource, FilamentGridJob, JobOptions, JobRequest, JobSpec, LoopBusJob, Span,
};
use ind101_numeric::{Complex64, SparseLu, SymbolicLu, Triplets};
use ind101_serve::{JobOutcome, JobServer, ServeError};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Jobs per batch (one timed iteration).
pub const BATCH_JOBS: usize = 100;
/// The batch mix: repeats first, then fresh jobs by kind. Assumed, not
/// measured (see the module documentation).
const REPEATS_PER_BATCH: usize = 30;
const FRESH_PER_BATCH: [(Kind, usize); 5] = [
    (Kind::T1Deck, 38),
    (Kind::BusDeck, 11),
    (Kind::Grid, 8),
    (Kind::LoopBus, 8),
    (Kind::Malformed, 5),
];
/// Filament-grid sizes, one job of each per batch.
const GRID_COUNT_LAT: [usize; 8] = [64, 96, 128, 192, 256, 320, 384, 512];
/// Filament-grid lateral pitches, nm: jobs share GMD kernels per pitch.
const GRID_PITCHES_NM: [i64; 2] = [200, 300];
/// Filament cross-section and base length, nm.
const GRID_WIRE_NM: i64 = 100;
const GRID_LENGTH_NM: i64 = 50_000;
/// Bus loop-extraction jobs: signals, one job of each per batch.
const LOOP_BUS_SIGNALS: [usize; 8] = [2, 2, 3, 3, 4, 4, 5, 6];
/// Bus loop-extraction geometry, nm, and sweep, hertz.
const LOOP_BUS_LENGTH_NM: i64 = 500_000;
const LOOP_BUS_SPACING_NM: i64 = 1_000;
const LOOP_BUS_FREQS_HZ: [f64; 3] = [1e8, 1e9, 1e10];
/// Deck variants scale the driver resistance by a factor drawn from
/// `1 ± DECK_VALUE_JITTER`.
const DECK_VALUE_JITTER: f64 = 0.2;
/// Every `DENSE_CHECK_EVERY`-th fresh deck is solved again outside the
/// server on the dense backend and compared to `DENSE_CHECK_RTOL`.
const DENSE_CHECK_EVERY: u64 = 20;
const DENSE_CHECK_RTOL: f64 = 1e-9;
/// Table-1 deck: the Thévenin driver's output resistance, ohms.
const T1_R_OUT_OHM: f64 = 50.0;
/// Traced runs: Table-1 decks replayed outside the server, and
/// repetitions of the other probes.
const REPLAY_DECKS: usize = 5;
const PROBE_REPEATS: usize = 5;
/// Residual bound for the AC probe's sparse solves, relative to `‖b‖∞`.
const AC_RESIDUAL_TOL: f64 = 1e-9;
/// Probe sizes: a mid-size filament grid and a 4-signal bus.
const PROBE_GRID_COUNT_LAT: usize = 256;
const PROBE_BUS_SIGNALS: usize = 4;

/// Job kinds in the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A Table-1 clock-net deck variant.
    T1Deck,
    /// A Section-4 bus deck variant.
    BusDeck,
    /// A filament-grid extraction.
    Grid,
    /// A bus loop R/L extraction.
    LoopBus,
    /// A deck with a bad number in it.
    Malformed,
}

impl Kind {
    /// Short name, as in the latency metric names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::T1Deck => "t1_deck",
            Self::BusDeck => "bus_deck",
            Self::Grid => "grid",
            Self::LoopBus => "loop_bus",
            Self::Malformed => "malformed",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Self::T1Deck => "serve.run_job.t1_deck",
            Self::BusDeck => "serve.run_job.bus_deck",
            Self::Grid => "serve.run_job.grid",
            Self::LoopBus => "serve.run_job.loop_bus",
            Self::Malformed => "serve.run_job.malformed",
        }
    }
}

/// One job of the stream: what to build, not the built request (deck
/// text is regenerated on demand, so the stream stays small).
#[derive(Clone, Debug, PartialEq)]
pub struct JobDesc {
    /// Job kind.
    pub kind: Kind,
    /// Fresh-job id: unique per fresh job, shared by its repeats.
    pub id: u64,
    /// Deck value factor (decks) or lateral pitch in nm (grids).
    pub param: f64,
    /// Grid lateral count or bus signal count.
    pub size: usize,
    /// Whether this is a repeat of an earlier job.
    pub repeat: bool,
}

/// The seeded job stream: batches of fixed composition in seeded order.
#[derive(Clone, Debug)]
pub struct JobStream {
    rng: Rng,
    next_id: u64,
    history: Vec<JobDesc>,
    pending: VecDeque<JobDesc>,
}

impl JobStream {
    /// The stream for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed, 3),
            next_id: 0,
            history: Vec::new(),
            pending: VecDeque::new(),
        }
    }

    fn fresh(&mut self, kind: Kind, slot: usize) -> JobDesc {
        let id = self.next_id;
        self.next_id += 1;
        let (param, size) = match kind {
            Kind::T1Deck | Kind::BusDeck | Kind::Malformed => {
                (1.0 + DECK_VALUE_JITTER * (2.0 * self.rng.unit() - 1.0), 0)
            }
            Kind::Grid => (
                GRID_PITCHES_NM[self.rng.below(GRID_PITCHES_NM.len())] as f64,
                GRID_COUNT_LAT[slot % GRID_COUNT_LAT.len()],
            ),
            Kind::LoopBus => (0.0, LOOP_BUS_SIGNALS[slot % LOOP_BUS_SIGNALS.len()]),
        };
        JobDesc {
            kind,
            id,
            param,
            size,
            repeat: false,
        }
    }

    fn refill(&mut self) {
        let mut batch: Vec<Option<Kind>> = vec![None; REPEATS_PER_BATCH];
        for (kind, n) in FRESH_PER_BATCH {
            batch.extend(std::iter::repeat_n(Some(kind), n));
        }
        self.rng.shuffle(&mut batch);
        let mut slots: HashMap<Kind, usize> = HashMap::new();
        for entry in batch {
            let desc = match entry {
                None if !self.history.is_empty() => {
                    let mut d = self.history[self.rng.below(self.history.len())].clone();
                    d.repeat = true;
                    d
                }
                // Nothing to repeat yet: the first batch starts cold.
                None => self.fresh(Kind::T1Deck, 0),
                Some(kind) => {
                    let slot = slots.entry(kind).or_insert(0);
                    *slot += 1;
                    self.fresh(kind, *slot - 1)
                }
            };
            if !desc.repeat && desc.kind != Kind::Malformed {
                self.history.push(desc.clone());
            }
            self.pending.push_back(desc);
        }
    }
}

impl Iterator for JobStream {
    type Item = JobDesc;

    fn next(&mut self) -> Option<JobDesc> {
        if self.pending.is_empty() {
            self.refill();
        }
        self.pending.pop_front()
    }
}

/// A deck with one element value left open: the text before and after
/// the value of the driver resistor.
#[derive(Clone, Debug)]
struct DeckTemplate {
    head: String,
    tail: String,
    base_ohms: f64,
}

impl DeckTemplate {
    /// Splits exported deck text at the value of the first resistor
    /// whose first node is `node`.
    fn new(text: &str, node: &str, base_ohms: f64) -> Result<Self, String> {
        let mut offset = 0;
        for line in text.split_inclusive('\n') {
            let mut tok = line.split_whitespace();
            let is_match =
                tok.next().is_some_and(|n| n.starts_with('R')) && tok.next() == Some(node);
            if is_match {
                let value_at = line
                    .trim_end()
                    .rfind(' ')
                    .ok_or("resistor line has no value")?
                    + 1;
                return Ok(Self {
                    head: text[..offset + value_at].to_owned(),
                    tail: text[offset + line.trim_end().len()..].to_owned(),
                    base_ohms,
                });
            }
            offset += line.len();
        }
        Err(format!("no resistor from node {node} in the deck"))
    }

    fn with_value(&self, value: &str) -> String {
        format!("{}{value}{}", self.head, self.tail)
    }
}

/// The analyses every deck requests: a DC operating point and a
/// 3-points-per-decade AC sweep over 0.1–10 GHz.
fn cards() -> Vec<AnalysisCard> {
    vec![
        AnalysisCard::Op {
            span: Span::default(),
        },
        AnalysisCard::Ac {
            span: Span::default(),
            sweep: AcSweep::Dec,
            points: 3,
            fstart: 1e8,
            fstop: 1e10,
        },
    ]
}

/// Reference solve outside the server: the deck on the dense backend.
/// Returns `(nodes, max |V| at the operating point, peak |V| at the
/// last AC frequency)`.
fn dense_solve(text: &str) -> Result<(usize, f64, f64), String> {
    let deck = parse_deck(text).map_err(|e| e.to_string())?;
    let flat = flatten(&deck).map_err(|e| e.to_string())?;
    let mut lowered = lower_flat(&flat).map_err(|e| e.to_string())?;
    lowered.circuit.set_solver_backend(SolverBackend::Dense);
    let (mut op_max, mut ac_peak) = (f64::NAN, f64::NAN);
    for plan in &lowered.analyses {
        match plan {
            AnalysisPlan::Op => {
                let op = lowered.circuit.dc_op().map_err(|e| e.to_string())?;
                op_max = lowered
                    .nodes
                    .iter()
                    .map(|&(_, id)| op.voltage(id).abs())
                    .fold(0.0, f64::max);
            }
            AnalysisPlan::Ac(opts) => {
                let ac = lowered.circuit.ac_sweep(opts).map_err(|e| e.to_string())?;
                let last = ac.freqs_hz.len().saturating_sub(1);
                ac_peak = lowered
                    .nodes
                    .iter()
                    .map(|&(_, id)| ac.voltage(id, last).abs())
                    .fold(0.0, f64::max);
            }
            AnalysisPlan::Tran(_) => {}
        }
    }
    Ok((lowered.nodes.len(), op_max, ac_peak))
}

/// One timed job.
#[derive(Clone, Copy, Debug)]
struct JobLog {
    kind: Kind,
    cached: bool,
    secs: f64,
    traced: bool,
}

/// The workload state.
pub struct DeckServe {
    server: JobServer,
    stream: JobStream,
    t1: DeckTemplate,
    bus: DeckTemplate,
    first: HashMap<u64, Arc<JobOutcome>>,
    fresh_decks: u64,
    log: Vec<JobLog>,
    replayed: Vec<JobDesc>,
}

impl DeckServe {
    fn deck_text(&self, d: &JobDesc) -> String {
        match d.kind {
            Kind::BusDeck => self
                .bus
                .with_value(&format_value(self.bus.base_ohms * d.param)),
            Kind::Malformed => self.t1.with_value(&format!("bad{}", d.id)),
            _ => self
                .t1
                .with_value(&format_value(self.t1.base_ohms * d.param)),
        }
    }

    /// The job request for a stream entry.
    fn request(&self, d: &JobDesc) -> JobRequest {
        let spec = match d.kind {
            Kind::T1Deck | Kind::BusDeck | Kind::Malformed => {
                JobSpec::Deck(DeckSource::Inline(self.deck_text(d)))
            }
            Kind::Grid => JobSpec::FilamentGrid(FilamentGridJob {
                count_z: 1,
                count_lat: d.size,
                pitch_z_nm: 0,
                pitch_lat_nm: d.param as i64,
                // A distinct length per job: a result-cache miss that
                // still shares every GMD kernel of its pitch.
                length_nm: GRID_LENGTH_NM + d.id as i64,
                width_nm: GRID_WIRE_NM,
                thickness_nm: GRID_WIRE_NM,
            }),
            Kind::LoopBus => JobSpec::LoopBus(LoopBusJob {
                signals: d.size,
                length_nm: LOOP_BUS_LENGTH_NM + d.id as i64,
                spacing_nm: LOOP_BUS_SPACING_NM,
                freqs_hz: LOOP_BUS_FREQS_HZ.to_vec(),
            }),
        };
        JobRequest {
            name: format!("{}-{}", d.kind.name(), d.id),
            spec,
            options: JobOptions::default(),
        }
    }

    /// Checks one job's result.
    fn check(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Checks,
        d: &JobDesc,
        req: &JobRequest,
        res: Result<Arc<JobOutcome>, ServeError>,
        cached: bool,
    ) {
        let who = &req.name;
        if d.kind == Kind::Malformed {
            match res {
                Err(ServeError::Parse { err, .. }) => {
                    checks.expect(err.span().is_valid(), || {
                        format!("{who}: parse error without a valid span")
                    });
                }
                other => checks.fail(format!("{who}: malformed deck returned {other:?}")),
            }
            return;
        }
        let out = match res {
            Ok(out) => out,
            Err(e) => return checks.fail(format!("{who}: {e}")),
        };
        checks.expect(cached == d.repeat, || {
            format!(
                "{who}: cached = {cached} on a {} job",
                if d.repeat { "repeated" } else { "fresh" }
            )
        });
        if d.repeat {
            let same = self.first.get(&d.id).is_some_and(|first| **first == *out);
            checks.expect(same, || {
                format!("{who}: cache hit differs from the first outcome")
            });
            return;
        }
        match (d.kind, &*out) {
            (Kind::T1Deck | Kind::BusDeck, JobOutcome::Deck(r)) => {
                let finite =
                    r.op_max_v.is_some_and(f64::is_finite) && r.ac_peak.is_some_and(f64::is_finite);
                checks.expect(
                    finite && r.ac_solved.is_some_and(|(s, n)| s == n && n > 0),
                    || format!("{who}: incomplete deck report {r:?}"),
                );
                self.fresh_decks += 1;
                if self.fresh_decks.is_multiple_of(DENSE_CHECK_EVERY) {
                    let text = self.deck_text(d);
                    match tr.span("check.dense_resolve", |_| dense_solve(&text)) {
                        Ok((nodes, op, ac)) => {
                            checks.expect(nodes == r.nodes, || {
                                format!("{who}: node count differs from dense")
                            });
                            checks.close(
                                &format!("{who}.op_max_v"),
                                r.op_max_v.unwrap_or(f64::NAN),
                                op,
                                DENSE_CHECK_RTOL,
                            );
                            checks.close(
                                &format!("{who}.ac_peak"),
                                r.ac_peak.unwrap_or(f64::NAN),
                                ac,
                                DENSE_CHECK_RTOL,
                            );
                        }
                        Err(e) => checks.fail(format!("{who}: dense re-solve failed: {e}")),
                    }
                }
                if d.kind == Kind::T1Deck && self.replayed.len() < REPLAY_DECKS {
                    self.replayed.push(d.clone());
                }
            }
            (Kind::Grid, JobOutcome::FilamentGrid(g)) => {
                let ok = g.filaments == d.size && g.l_self_min > 0.0 && g.l_self_max.is_finite();
                checks.expect(ok, || format!("{who}: bad grid report {g:?}"));
            }
            (Kind::LoopBus, JobOutcome::LoopBus(b)) => {
                let ok = b.freqs_hz.len() == LOOP_BUS_FREQS_HZ.len()
                    && b.r_ohm
                        .iter()
                        .chain(&b.l_h)
                        .all(|v| v.is_finite() && *v > 0.0);
                checks.expect(ok, || format!("{who}: bad loop report {b:?}"));
            }
            (_, other) => checks.fail(format!("{who}: unexpected outcome {other:?}")),
        }
        self.first.insert(d.id, out);
    }

    fn latencies(&self, traced: bool, keep: impl Fn(&JobLog) -> bool) -> Vec<f64> {
        self.log
            .iter()
            .filter(|j| j.traced == traced && keep(j))
            .map(|j| j.secs * 1e3)
            .collect()
    }
}

impl Workload for DeckServe {
    const NAME: &'static str = "deck_serve";
    // The job stream starts from cold server caches; filling them is
    // part of what the workload measures.
    const WARMUP: bool = false;

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let small = ClockGeometry::small().extract(tr);
        let tb = build_testbench(
            &small.par,
            InductanceMode::Full,
            &TestbenchSpec {
                driver: DriverKind::Thevenin {
                    r_out: T1_R_OUT_OHM,
                },
                input_ac_mag: 1.0,
                ..TestbenchSpec::default()
            },
        )
        .map_err(|e| format!("table1 testbench: {e}"))?;
        let t1_text = export_deck(&tb.circuit, "table1 clock net (linear testbench)", &cards())
            .map_err(|e| e.to_string())?;
        let t1 = DeckTemplate::new(&t1_text, tb.circuit.node_name(tb.input), T1_R_OUT_OHM)?;

        let tech = Technology::example_copper_6lm();
        let bus_l = PartialInductance::extract(&tech, generate_bus(&tech, &bus_spec()).segments());
        let (bus_c, _) = bus_circuit(bus_l.matrix(), 1.0).map_err(|e| e.to_string())?;
        let bus_text =
            export_deck(&bus_c, "section 4 coupled bus", &cards()).map_err(|e| e.to_string())?;
        let bus = DeckTemplate::new(&bus_text, "stim", near_ohms(&bus_c))?;

        Ok(Self {
            server: JobServer::new(),
            stream: JobStream::new(seed),
            t1,
            bus,
            first: HashMap::new(),
            fresh_decks: 0,
            log: Vec::new(),
            replayed: Vec::new(),
        })
    }

    fn iteration(&mut self, ctx: &mut Ctx) -> f64 {
        let mut server_s = 0.0;
        for _ in 0..BATCH_JOBS {
            let Some(d) = self.stream.next() else { break };
            let req = self.request(&d);
            ctx.checks.begin();
            let t0 = ctx.tr.now();
            let (res, cached) = ctx.tr.span(d.kind.span(), |_| self.server.run_job(&req));
            let secs = ctx.tr.now() - t0;
            server_s += secs;
            if ctx.timed() {
                self.log.push(JobLog {
                    kind: d.kind,
                    cached,
                    secs,
                    traced: ctx.tr.enabled(),
                });
            }
            self.check(&mut ctx.tr, &mut ctx.checks, &d, &req, res, cached);
        }
        server_s
    }

    fn probes(&mut self, ctx: &mut Ctx) {
        let tr = &mut ctx.tr;
        // Replay of Table-1 deck misses outside the server, layer by layer.
        for (k, d) in self.replayed.clone().iter().enumerate() {
            tr.set_iter(PROBE_ITER + k);
            let text = self.deck_text(d);
            if let Err(e) = replay(tr, &text) {
                ctx.checks.fail(format!("replay: {e}"));
            }
        }
        let Some(d) = self.replayed.first().cloned() else {
            return ctx.checks.fail("no Table-1 deck to probe".to_owned());
        };
        let text = self.deck_text(&d);
        for k in 0..PROBE_REPEATS {
            tr.set_iter(PROBE_ITER + k);
            ctx.checks.begin();
            if let Err(e) = ac_probe(tr, &mut ctx.checks, &text) {
                ctx.checks.fail(format!("AC probe: {e}"));
            }
            let grid = FilamentGridSpec {
                count_z: 1,
                count_lat: PROBE_GRID_COUNT_LAT,
                pitch_z_nm: 0,
                pitch_lat_nm: GRID_PITCHES_NM[0],
                length_nm: GRID_LENGTH_NM,
                width_nm: GRID_WIRE_NM,
                thickness_nm: GRID_WIRE_NM,
            };
            let op = tr.span("extract.grid_operator", |_| {
                GridInductanceOperator::new(grid, None).map(|op| op.to_dense())
            });
            ctx.checks
                .expect(op.is_ok(), || "grid operator probe failed".to_owned());
            if let Err(e) = loop_bus_probe(tr) {
                ctx.checks.fail(format!("loop bus probe: {e}"));
            }
        }
    }

    fn finish(&self, traced: bool, metrics: &mut BTreeMap<String, Metric>) {
        let mut put = |name: &str, v: Option<f64>, unit: &str| {
            if let Some(v) = v {
                metrics.insert(name.to_owned(), Metric::single(v, unit));
            }
        };
        if !traced {
            // Each statistic is taken over all timed jobs, with the
            // quartiles of the same statistic over interleaved quarters
            // of the jobs, like every untraced metric.
            let per_s = |ms: &[f64]| {
                let s = ms.iter().sum::<f64>() * 1e-3;
                (s > 0.0).then(|| ms.len() as f64 / s)
            };
            type Stat = fn(&[f64]) -> Option<f64>;
            let stats: [(&str, &str, Stat); 3] = [
                ("job_latency_ms.p50", "ms", median),
                ("job_latency_ms.p99", "ms", |v| percentile(v, 0.99)),
                ("jobs_per_s", "1/s", per_s),
            ];
            let all = self.latencies(false, |_| true);
            for (name, unit, stat) in stats {
                if let Some(s) = quartered(&all, stat) {
                    metrics.insert(name.to_owned(), Metric::from_summary(&s, unit));
                }
            }
            return;
        }
        let hits = self.latencies(true, |j| j.cached);
        let misses = self.latencies(true, |j| !j.cached);
        put("serve.run_job.hit_ms.p50", median(&hits), "ms");
        put("serve.run_job.miss_ms.p50", median(&misses), "ms");
        put("serve.run_job.miss_ms.p99", percentile(&misses, 0.99), "ms");
        for kind in [
            Kind::T1Deck,
            Kind::BusDeck,
            Kind::Grid,
            Kind::LoopBus,
            Kind::Malformed,
        ] {
            let v = self.latencies(true, |j| j.kind == kind && !j.cached);
            put(
                &format!("serve.run_job.{}_ms.p50", kind.name()),
                median(&v),
                "ms",
            );
        }
        let s = self.server.stats();
        let lookups = (s.cache_hits + s.cache_misses).max(1);
        put(
            "serve.result_hit_ratio",
            Some(s.cache_hits as f64 / lookups as f64),
            "fraction",
        );
        put("serve.gmd_hit_ratio", Some(s.gmd.hit_rate()), "fraction");
        put(
            "serve.gmd_collisions",
            Some(s.gmd.collisions as f64),
            "count",
        );
        put("serve.lu_patterns", Some(s.lu_patterns as f64), "count");
    }
}

/// The bus deck's near-end termination, ohms (the stimulus resistor).
fn near_ohms(c: &Circuit) -> f64 {
    c.elements()
        .iter()
        .find_map(|e| match e {
            ind101_circuit::Element::Resistor { a, ohms, .. } if c.node_name(*a) == "stim" => {
                Some(*ohms)
            }
            _ => None,
        })
        .unwrap_or(f64::NAN)
}

/// One deck through the frontend, the verify gate and the solver, a
/// span per layer call.
fn replay(tr: &mut Tracer, text: &str) -> Result<(), String> {
    let deck = tr
        .span("netlist.parse_deck", |_| parse_deck(text))
        .map_err(|e| e.to_string())?;
    let flat = tr
        .span("netlist.flatten", |_| flatten(&deck))
        .map_err(|e| e.to_string())?;
    let lowered = tr
        .span("netlist.lower_flat", |_| lower_flat(&flat))
        .map_err(|e| e.to_string())?;
    let c = &lowered.circuit;
    tr.span("verify.check", |_| {
        ind101_verify::check(c, &ind101_verify::GateOptions::default())
    })
    .map_err(|e| e.to_string())?;
    for plan in &lowered.analyses {
        match plan {
            AnalysisPlan::Op => {
                tr.span("circuit.dc_op", |_| c.dc_op())
                    .map_err(|e| e.to_string())?;
            }
            AnalysisPlan::Ac(opts) => {
                tr.span("circuit.ac_sweep", |_| c.ac_sweep(opts))
                    .map_err(|e| e.to_string())?;
            }
            AnalysisPlan::Tran(_) => {}
        }
    }
    Ok(())
}

/// Numeric probe on a deck's AC matrices `G + jωC`, one per `.AC`
/// frequency: one symbolic analysis, a factorization at the first
/// frequency, refactorizations at the rest, a solve at each, and a
/// residual check.
fn ac_probe(tr: &mut Tracer, checks: &mut Checks, text: &str) -> Result<(), String> {
    let deck = parse_deck(text).map_err(|e| e.to_string())?;
    let lowered =
        lower_flat(&flatten(&deck).map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let freqs = lowered
        .analyses
        .iter()
        .find_map(|p| match p {
            AnalysisPlan::Ac(o) => Some(o.freqs_hz.clone()),
            _ => None,
        })
        .ok_or("deck has no .AC card")?;
    let sys = lowered.circuit.mna_system().map_err(|e| e.to_string())?;
    let mut b = vec![Complex64::ZERO; sys.n];
    for col in &sys.b_cols {
        for &(i, v) in col {
            b[i] += Complex64::from_real(v);
        }
    }
    let matrix = |f: f64| {
        let w = 2.0 * std::f64::consts::PI * f;
        let mut a = Triplets::new(sys.n, sys.n);
        for &(i, j, v) in sys.g.entries() {
            a.push(i, j, Complex64::from_real(v));
        }
        for &(i, j, v) in sys.c.entries() {
            a.push(i, j, Complex64::from_imag(w * v));
        }
        a.to_csr()
    };
    let mut lu: Option<SparseLu<Complex64>> = None;
    let bnorm = b
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    for f in freqs {
        let a = matrix(f);
        match lu.as_mut() {
            None => {
                let sym = Arc::new(
                    tr.span("numeric.sparse_analyze.ac", |_| SymbolicLu::analyze(&a))
                        .map_err(|e| e.to_string())?,
                );
                let fresh = tr
                    .span("numeric.sparse_factor.ac", |_| {
                        SparseLu::factor_with(sym, &a)
                    })
                    .map_err(|e| e.to_string())?;
                let stats = fresh.stats();
                tr.count("numeric.factor_nnz.ac", stats.factor_nnz as f64);
                tr.count("numeric.supernodes.ac", stats.num_supernodes as f64);
                lu = Some(fresh);
            }
            Some(lu) => {
                tr.span("numeric.sparse_refactor.ac", |_| lu.refactor(&a))
                    .map_err(|e| e.to_string())?;
            }
        }
        let lu = lu.as_ref().ok_or("no factorization")?;
        let x = tr
            .span("numeric.sparse_solve.ac", |_| lu.solve(&b))
            .map_err(|e| e.to_string())?;
        let ax = a.matvec(&x).map_err(|e| e.to_string())?;
        let resid = ax
            .iter()
            .zip(&b)
            .fold(0.0f64, |m, (p, q)| m.max((*p - *q).abs()))
            / bnorm;
        checks.expect(resid <= AC_RESIDUAL_TOL, || {
            format!("AC probe at {f:e} Hz: residual {resid:e} exceeds {AC_RESIDUAL_TOL:e}")
        });
    }
    Ok(())
}

/// Loop R/L extraction of a short bus, as the server's loop-bus jobs do.
fn loop_bus_probe(tr: &mut Tracer) -> Result<(), String> {
    let tech = Technology::example_copper_6lm();
    let layout = generate_bus(
        &tech,
        &BusSpec {
            signals: PROBE_BUS_SIGNALS,
            length_nm: LOOP_BUS_LENGTH_NM,
            spacing_nm: LOOP_BUS_SPACING_NM,
            ..BusSpec::default()
        },
    );
    let par = PeecParasitics::extract(&layout, LOOP_BUS_LENGTH_NM);
    let port = LoopPortSpec::from_layout(&par).ok_or("bus has no loop port")?;
    tr.span("loopind.extract_loop_rl.bus", |_| {
        extract_loop_rl(&par, &port, &LOOP_BUS_FREQS_HZ)
    })
    .map(|_| ())
    .map_err(|e| e.to_string())
}
