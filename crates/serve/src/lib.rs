//! Concurrent job server over the deck frontend.
//!
//! Feeds [`ind101_netlist`] job files (JSON or TOML) through a fixed
//! worker pool and three layers of reuse:
//!
//! 1. a **content-addressed result cache** — jobs are keyed by an
//!    FNV-1a hash of their payload (deck text or spec) plus
//!    [`JobOptions::cache_token`], so identical submissions solve
//!    once and changing a single token re-solves;
//! 2. a shared **GMD cache** — every filament-grid job draws from one
//!    [`GmdCache`], so geometry repeated across jobs is computed once;
//! 3. a **symbolic-LU pattern cache** — deck AC sweeps keyed by the
//!    circuit's structural hash reuse the AMD analysis across jobs
//!    whose matrices share a sparsity pattern (the solver re-checks
//!    the pattern, so a stale hint is merely ignored).
//!
//! Every deck is hardened through the [`ind101_verify`] gate before
//! it is solved (unless the job opts out), and each job's
//! [`SolveBudget`](ind101_numeric::SolveBudget) / [`FailurePolicy`]
//! ride through the resilient sweep unchanged.
//!
//! Concurrency lives at the job level: inside a job the solvers run
//! with [`ParallelConfig::serial`] so `threads` workers never
//! oversubscribe the host.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_docs)]

use ind101_circuit::{Circuit, CircuitError, Element, ResilienceOptions};
use ind101_extract::{FilamentGridSpec, GmdCache, GmdCacheStats, GridInductanceOperator};
use ind101_geom::generators::{generate_bus, BusSpec};
use ind101_geom::Technology;
use ind101_loop::{extract_loop_rl_resilient, ExtractionBackend, LoopPortSpec};
use ind101_netlist::{
    flatten, lower_flat, parse_deck, AnalysisPlan, DeckSource, FilamentGridJob, JobFile,
    JobOptions, JobRequest, JobSpec, LoopBusJob, NetlistError,
};
use ind101_numeric::{CancelToken, ParallelConfig, SymbolicLu};
use ind101_verify::GateOptions;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

pub use ind101_circuit::{FailurePolicy, SolverBackend};
pub use ind101_core::PeecParasitics;
pub use ind101_netlist::jobs_from_str;

/// Why a job failed. Variants carry the job name so batched runs stay
/// attributable; see DESIGN.md § Failure semantics.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// A deck file referenced by `path = …` could not be read.
    Io {
        /// Job name.
        job: String,
        /// OS-level detail.
        what: String,
    },
    /// The deck failed to parse, flatten, or lower.
    Parse {
        /// Job name.
        job: String,
        /// The typed frontend error (line/column spans intact).
        err: NetlistError,
    },
    /// The verification gate rejected the lowered circuit.
    Rejected {
        /// Job name.
        job: String,
        /// Gate summary (first findings).
        what: String,
    },
    /// A budget refused the job before or during the solve.
    Budget {
        /// Job name.
        job: String,
        /// Which budget and by how much.
        what: String,
    },
    /// The solver failed (singular system, non-convergence, …).
    Solve {
        /// Job name.
        job: String,
        /// Solver detail.
        what: String,
    },
    /// Geometry extraction failed (bad grid spec, portless layout).
    Extract {
        /// Job name.
        job: String,
        /// Extraction detail.
        what: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { job, what } => write!(f, "job {job}: io: {what}"),
            Self::Parse { job, err } => write!(f, "job {job}: {err}"),
            Self::Rejected { job, what } => write!(f, "job {job}: rejected by verify gate: {what}"),
            Self::Budget { job, what } => write!(f, "job {job}: budget: {what}"),
            Self::Solve { job, what } => write!(f, "job {job}: solve: {what}"),
            Self::Extract { job, what } => write!(f, "job {job}: extract: {what}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Summary of one deck job: every analysis card, in deck order.
#[derive(Clone, Debug, PartialEq)]
pub struct DeckReport {
    /// Named (non-ground) nodes in the lowered circuit.
    pub nodes: usize,
    /// `max |V|` over named nodes at the DC operating point, when the
    /// deck requested `.OP`.
    pub op_max_v: Option<f64>,
    /// `(solved, requested)` frequency counts for `.AC`.
    pub ac_solved: Option<(usize, usize)>,
    /// Peak node-voltage magnitude at the last solved AC frequency.
    pub ac_peak: Option<f64>,
    /// Accepted time steps for `.TRAN`.
    pub tran_steps: Option<usize>,
}

/// Summary of one filament-grid extraction job.
#[derive(Clone, Debug, PartialEq)]
pub struct FilamentGridReport {
    /// Filament count (grid size).
    pub filaments: usize,
    /// Smallest partial self inductance on the diagonal, henries.
    pub l_self_min: f64,
    /// Largest partial self inductance on the diagonal, henries.
    pub l_self_max: f64,
}

/// Summary of one bus loop-extraction job.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopBusReport {
    /// Solved sweep frequencies, hertz.
    pub freqs_hz: Vec<f64>,
    /// Loop resistance per solved frequency, ohms.
    pub r_ohm: Vec<f64>,
    /// Loop inductance per solved frequency, henries.
    pub l_h: Vec<f64>,
}

/// What a finished job produced.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// Deck analyses.
    Deck(DeckReport),
    /// Filament-grid extraction.
    FilamentGrid(FilamentGridReport),
    /// Bus loop extraction.
    LoopBus(LoopBusReport),
}

/// One job's result within a batch, in submission order.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Job name from the file.
    pub name: String,
    /// Outcome or typed failure.
    pub outcome: Result<Arc<JobOutcome>, ServeError>,
    /// Whether the result came from the content cache.
    pub cached: bool,
}

/// Server-wide reuse counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Result-cache hits (a finished result was reused).
    pub cache_hits: u64,
    /// Result-cache misses (the job was actually solved).
    pub cache_misses: u64,
    /// Shared GMD-cache counters across all filament-grid jobs.
    pub gmd: GmdCacheStats,
    /// Distinct MNA sparsity patterns with a cached symbolic analysis.
    pub lu_patterns: usize,
}

enum CacheSlot {
    /// Another worker is solving this key; wait on the condvar.
    InFlight,
    /// Finished successfully.
    Done(Arc<JobOutcome>),
}

#[derive(Default)]
struct ResultCache {
    slots: HashMap<u64, CacheSlot>,
    hits: u64,
    misses: u64,
}

/// GMD cache capacity: comfortably above the distinct cross-section
/// count of any realistic job batch.
const GMD_CAPACITY: usize = 4096;

/// The job server: owns the three caches, runs job files over a
/// fixed worker pool.
pub struct JobServer {
    gmd: GmdCache,
    results: Mutex<ResultCache>,
    done: Condvar,
    patterns: Mutex<HashMap<u64, Arc<SymbolicLu>>>,
}

impl Default for JobServer {
    fn default() -> Self {
        Self::new()
    }
}

impl JobServer {
    /// A fresh server with empty caches.
    #[must_use]
    pub fn new() -> Self {
        Self {
            gmd: GmdCache::new(GMD_CAPACITY),
            results: Mutex::new(ResultCache::default()),
            done: Condvar::new(),
            patterns: Mutex::new(HashMap::new()),
        }
    }

    /// Snapshot of the reuse counters.
    ///
    /// # Panics
    ///
    /// Panics if an internal lock was poisoned (a worker panicked).
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        #[allow(clippy::unwrap_used)]
        let r = self.results.lock().unwrap();
        #[allow(clippy::unwrap_used)]
        let p = self.patterns.lock().unwrap();
        ServeStats {
            cache_hits: r.hits,
            cache_misses: r.misses,
            gmd: self.gmd.stats(),
            lu_patterns: p.len(),
        }
    }

    /// Runs every job in the file over `file.threads` workers
    /// (default: one) and returns results in submission order.
    pub fn run_file(&self, file: &JobFile) -> Vec<JobResult> {
        self.run_file_with(file, None)
    }

    /// [`Self::run_file`] with an external cancellation token folded
    /// into every job's solve budget.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked (propagated by the scope).
    pub fn run_file_with(&self, file: &JobFile, cancel: Option<&CancelToken>) -> Vec<JobResult> {
        let n = file.jobs.len();
        let workers = file.threads.unwrap_or(1).clamp(1, n.max(1));
        let next = Mutex::new(0usize);
        let out: Vec<Mutex<Option<JobResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = {
                        #[allow(clippy::unwrap_used)]
                        let mut g = next.lock().unwrap();
                        let i = *g;
                        if i >= n {
                            return;
                        }
                        *g += 1;
                        i
                    };
                    let job = &file.jobs[i];
                    let (outcome, cached) = self.run_job_with(job, cancel);
                    #[allow(clippy::unwrap_used)]
                    let mut slot = out[i].lock().unwrap();
                    *slot = Some(JobResult {
                        name: job.name.clone(),
                        outcome,
                        cached,
                    });
                });
            }
        });
        out.into_iter()
            .map(|m| {
                #[allow(clippy::unwrap_used)]
                m.into_inner().unwrap().unwrap_or(JobResult {
                    name: String::new(),
                    outcome: Err(ServeError::Solve {
                        job: String::new(),
                        what: "worker terminated without a result".to_owned(),
                    }),
                    cached: false,
                })
            })
            .collect()
    }

    /// Runs one job through the content cache; `cached` reports
    /// whether a previously solved result was reused.
    pub fn run_job(&self, job: &JobRequest) -> (Result<Arc<JobOutcome>, ServeError>, bool) {
        self.run_job_with(job, None)
    }

    /// [`Self::run_job`] with an external cancellation token.
    ///
    /// # Panics
    ///
    /// Panics if an internal lock was poisoned (a worker panicked).
    pub fn run_job_with(
        &self,
        job: &JobRequest,
        cancel: Option<&CancelToken>,
    ) -> (Result<Arc<JobOutcome>, ServeError>, bool) {
        let key = match content_key(job) {
            Ok(k) => k,
            Err(e) => return (Err(e), false),
        };
        // Claim the key or wait for whoever holds it. Failures are
        // handed to current waiters by dropping the claim, so a later
        // identical submission retries instead of caching the failure.
        {
            #[allow(clippy::unwrap_used)]
            let mut cache = self.results.lock().unwrap();
            loop {
                match cache.slots.get(&key) {
                    Some(CacheSlot::Done(res)) => {
                        let res = Arc::clone(res);
                        cache.hits += 1;
                        return (Ok(res), true);
                    }
                    Some(CacheSlot::InFlight) => {
                        #[allow(clippy::unwrap_used)]
                        {
                            cache = self.done.wait(cache).unwrap();
                        }
                    }
                    None => {
                        cache.slots.insert(key, CacheSlot::InFlight);
                        cache.misses += 1;
                        break;
                    }
                }
            }
        }
        let res = self.solve(job, cancel);
        {
            #[allow(clippy::unwrap_used)]
            let mut cache = self.results.lock().unwrap();
            match &res {
                Ok(outcome) => {
                    cache.slots.insert(key, CacheSlot::Done(Arc::clone(outcome)));
                }
                Err(_) => {
                    cache.slots.remove(&key);
                }
            }
        }
        self.done.notify_all();
        (res, false)
    }

    fn solve(
        &self,
        job: &JobRequest,
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<JobOutcome>, ServeError> {
        let outcome = match &job.spec {
            JobSpec::Deck(source) => self.run_deck(job, source, cancel)?,
            JobSpec::FilamentGrid(grid) => self.run_grid(job, grid)?,
            JobSpec::LoopBus(bus) => self.run_loop_bus(job, bus, cancel)?,
        };
        Ok(Arc::new(outcome))
    }

    fn run_deck(
        &self,
        job: &JobRequest,
        source: &DeckSource,
        cancel: Option<&CancelToken>,
    ) -> Result<JobOutcome, ServeError> {
        let name = &job.name;
        let src = match source {
            DeckSource::Inline(text) => text.clone(),
            DeckSource::Path(path) => std::fs::read_to_string(path).map_err(|e| ServeError::Io {
                job: name.clone(),
                what: format!("{path}: {e}"),
            })?,
        };
        let parse_err = |err: NetlistError| ServeError::Parse {
            job: name.clone(),
            err,
        };
        let deck = parse_deck(&src).map_err(parse_err)?;
        let flat = flatten(&deck).map_err(parse_err)?;
        let lowered = lower_flat(&flat).map_err(parse_err)?;
        let mut c = lowered.circuit;
        c.set_solver_backend(job.options.backend);
        if job.options.verify {
            ind101_verify::check(&c, &GateOptions::default()).map_err(|e| ServeError::Rejected {
                job: name.clone(),
                what: e.to_string(),
            })?;
        }

        let cfg = ParallelConfig::serial();
        let mut report = DeckReport {
            nodes: lowered.nodes.len(),
            op_max_v: None,
            ac_solved: None,
            ac_peak: None,
            tran_steps: None,
        };
        for plan in &lowered.analyses {
            match plan {
                AnalysisPlan::Op => {
                    let op = c.dc_op().map_err(|e| solve_err(name, &e))?;
                    report.op_max_v = Some(
                        lowered
                            .nodes
                            .iter()
                            .map(|&(_, id)| op.voltage(id).abs())
                            .fold(0.0f64, f64::max),
                    );
                }
                AnalysisPlan::Ac(opts) => {
                    let resilience = resilience_for(&job.options, cancel);
                    let hint = self.symbolic_hint(&c, opts.freqs_hz.first().copied());
                    let sweep = c
                        .ac_sweep_resilient_with_symbolic(opts, &cfg, &resilience, hint)
                        .map_err(|e| solve_err(name, &e))?;
                    let solved = sweep.ac.freqs_hz.len();
                    report.ac_solved = Some((solved, opts.freqs_hz.len()));
                    report.ac_peak = (solved > 0).then(|| {
                        lowered
                            .nodes
                            .iter()
                            .map(|&(_, id)| sweep.ac.voltage(id, solved - 1).abs())
                            .fold(0.0f64, f64::max)
                    });
                }
                AnalysisPlan::Tran(opts) => {
                    let res = c.transient(opts).map_err(|e| solve_err(name, &e))?;
                    report.tran_steps = Some(res.len());
                }
            }
        }
        Ok(JobOutcome::Deck(report))
    }

    /// Looks up (or computes and caches) the symbolic analysis for
    /// this circuit's sparsity pattern. A hash collision at worst
    /// hands the solver a non-matching hint, which it verifies and
    /// discards.
    fn symbolic_hint(&self, c: &Circuit, f0: Option<f64>) -> Option<Arc<SymbolicLu>> {
        let key = structure_hash(c);
        {
            #[allow(clippy::unwrap_used)]
            let patterns = self.patterns.lock().ok()?;
            if let Some(sym) = patterns.get(&key) {
                return Some(Arc::clone(sym));
            }
        }
        let sym = c.ac_symbolic(f0?)?;
        if let Ok(mut patterns) = self.patterns.lock() {
            patterns.entry(key).or_insert_with(|| Arc::clone(&sym));
        }
        Some(sym)
    }

    fn run_grid(&self, job: &JobRequest, grid: &FilamentGridJob) -> Result<JobOutcome, ServeError> {
        let spec = FilamentGridSpec {
            count_z: grid.count_z,
            count_lat: grid.count_lat,
            pitch_z_nm: grid.pitch_z_nm,
            pitch_lat_nm: grid.pitch_lat_nm,
            length_nm: grid.length_nm,
            width_nm: grid.width_nm,
            thickness_nm: grid.thickness_nm,
        };
        let n = grid.count_z.saturating_mul(grid.count_lat);
        if let Some(limit) = job.options.memory_bytes {
            let need = n.saturating_mul(n).saturating_mul(8);
            if need > limit {
                return Err(ServeError::Budget {
                    job: job.name.clone(),
                    what: format!("dense {n}×{n} grid needs {need} B, budget {limit} B"),
                });
            }
        }
        let op = GridInductanceOperator::new(spec, Some(&self.gmd)).map_err(|e| {
            ServeError::Extract {
                job: job.name.clone(),
                what: e.to_string(),
            }
        })?;
        let m = op.to_dense();
        let mut l_min = f64::INFINITY;
        let mut l_max = f64::NEG_INFINITY;
        for i in 0..m.nrows() {
            l_min = l_min.min(m[(i, i)]);
            l_max = l_max.max(m[(i, i)]);
        }
        Ok(JobOutcome::FilamentGrid(FilamentGridReport {
            filaments: m.nrows(),
            l_self_min: l_min,
            l_self_max: l_max,
        }))
    }

    fn run_loop_bus(
        &self,
        job: &JobRequest,
        bus: &LoopBusJob,
        cancel: Option<&CancelToken>,
    ) -> Result<JobOutcome, ServeError> {
        let tech = Technology::example_copper_6lm();
        let layout = generate_bus(
            &tech,
            &BusSpec {
                signals: bus.signals,
                length_nm: bus.length_nm,
                spacing_nm: bus.spacing_nm,
                ..BusSpec::default()
            },
        );
        let par = PeecParasitics::extract(&layout, bus.length_nm);
        let spec = LoopPortSpec::from_layout(&par).ok_or_else(|| ServeError::Extract {
            job: job.name.clone(),
            what: "bus layout exposes no loop port".to_owned(),
        })?;
        let resilience = resilience_for(&job.options, cancel);
        let backend = match job.options.backend {
            SolverBackend::Dense => ExtractionBackend::Dense,
            SolverBackend::Sparse => ExtractionBackend::MatrixFree,
            SolverBackend::Auto => ExtractionBackend::Auto,
        };
        let got = extract_loop_rl_resilient(
            &par,
            &spec,
            &bus.freqs_hz,
            &ParallelConfig::serial(),
            backend,
            &resilience,
        )
        .map_err(|e| solve_err(&job.name, &e))?;
        Ok(JobOutcome::LoopBus(LoopBusReport {
            freqs_hz: got.extraction.freqs_hz,
            r_ohm: got.extraction.r_ohm,
            l_h: got.extraction.l_h,
        }))
    }
}

/// Maps a solver failure, keeping budget exhaustion distinguishable.
fn solve_err(job: &str, e: &CircuitError) -> ServeError {
    if matches!(e, CircuitError::BudgetExceeded { .. }) {
        ServeError::Budget {
            job: job.to_owned(),
            what: e.to_string(),
        }
    } else {
        ServeError::Solve {
            job: job.to_owned(),
            what: e.to_string(),
        }
    }
}

fn resilience_for(options: &JobOptions, cancel: Option<&CancelToken>) -> ResilienceOptions {
    let mut budget = options.budget();
    if let Some(token) = cancel {
        budget = budget.with_cancel(token.clone());
    }
    ResilienceOptions {
        budget,
        policy: options.policy,
        ..ResilienceOptions::default()
    }
}

/// FNV-1a 64-bit.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]); // field separator
    }
}

/// Content key: payload text (deck text for deck jobs — a file-backed
/// deck is keyed by its *contents*, so editing the file invalidates)
/// plus the options token. The job name is deliberately excluded:
/// two differently named but identical jobs share one solve.
fn content_key(job: &JobRequest) -> Result<u64, ServeError> {
    let mut h = Fnv::new();
    match &job.spec {
        JobSpec::Deck(DeckSource::Inline(text)) => {
            h.write_str("deck");
            h.write_str(text);
        }
        JobSpec::Deck(DeckSource::Path(path)) => {
            let text = std::fs::read_to_string(path).map_err(|e| ServeError::Io {
                job: job.name.clone(),
                what: format!("{path}: {e}"),
            })?;
            h.write_str("deck");
            h.write_str(&text);
        }
        JobSpec::FilamentGrid(g) => {
            h.write_str("grid");
            h.write_str(&format!("{g:?}"));
        }
        JobSpec::LoopBus(b) => {
            h.write_str("loop_bus");
            h.write_str(&format!("{b:?}"));
        }
    }
    h.write_str(&job.options.cache_token());
    Ok(h.0)
}

/// Structural hash of a circuit's MNA pattern: element topology and
/// kind only — values are excluded, so two decks that differ only in
/// component values share a symbolic analysis.
fn structure_hash(c: &Circuit) -> u64 {
    let mut h = Fnv::new();
    for e in c.elements() {
        match e {
            Element::Resistor { a, b, .. } => {
                h.write_str("R");
                h.write_str(c.node_name(*a));
                h.write_str(c.node_name(*b));
            }
            Element::Capacitor { a, b, .. } => {
                h.write_str("C");
                h.write_str(c.node_name(*a));
                h.write_str(c.node_name(*b));
            }
            Element::Vsrc { plus, minus, .. } => {
                h.write_str("V");
                h.write_str(c.node_name(*plus));
                h.write_str(c.node_name(*minus));
            }
            Element::Isrc { from, into, .. } => {
                h.write_str("I");
                h.write_str(c.node_name(*from));
                h.write_str(c.node_name(*into));
            }
            Element::Transistor(_) => h.write_str("M"),
        }
    }
    for sys in c.inductor_systems() {
        h.write_str("LS");
        for &(a, b) in &sys.branches {
            h.write_str(c.node_name(a));
            h.write_str(c.node_name(b));
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deck_job(name: &str, deck: &str) -> JobRequest {
        JobRequest {
            name: name.to_owned(),
            spec: JobSpec::Deck(DeckSource::Inline(deck.to_owned())),
            options: JobOptions::default(),
        }
    }

    #[test]
    fn name_is_not_part_of_the_key() {
        let a = deck_job("a", "t\nR1 x 0 1\n.OP\n");
        let b = deck_job("b", "t\nR1 x 0 1\n.OP\n");
        assert_eq!(content_key(&a).unwrap(), content_key(&b).unwrap());
    }

    #[test]
    fn one_character_changes_the_key() {
        let a = deck_job("a", "t\nR1 x 0 1\n.OP\n");
        let b = deck_job("a", "t\nR1 x 0 2\n.OP\n");
        assert_ne!(content_key(&a).unwrap(), content_key(&b).unwrap());
    }

    #[test]
    fn options_change_the_key() {
        let mut b = deck_job("a", "t\nR1 x 0 1\n.OP\n");
        b.options.verify = false;
        let a = deck_job("a", "t\nR1 x 0 1\n.OP\n");
        assert_ne!(content_key(&a).unwrap(), content_key(&b).unwrap());
    }

    #[test]
    fn structure_hash_ignores_values() {
        let mk = |ohms: f64| {
            let mut c = Circuit::new();
            let x = c.node("x");
            c.resistor(x, Circuit::GND, ohms);
            c
        };
        assert_eq!(structure_hash(&mk(1.0)), structure_hash(&mk(2.0)));
    }
}
