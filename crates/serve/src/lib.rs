//! Concurrent job server over the deck frontend.
//!
//! Feeds [`ind101_netlist`] job files (JSON or TOML) through a fixed
//! worker pool and three layers of reuse:
//!
//! 1. a **content-addressed result cache** — jobs are keyed by the
//!    BLAKE2b-256 digest (RFC 7693) of their canonical payload (kind
//!    tag, deck text or spec, and [`JobOptions::cache_token`]), compared
//!    whole, so identical submissions solve once, changing a single
//!    token re-solves, and two different payloads could share a slot
//!    only through a BLAKE2b collision, of which none is known. Only
//!    complete answers are kept: a failure, or a sweep that a cancel
//!    token or an exhausted budget stopped early, reaches its own caller
//!    and is solved afresh by the next identical job;
//! 2. a shared **GMD cache** — every filament-grid job draws from one
//!    [`GmdCache`], so geometry repeated across jobs is computed once;
//! 3. two **symbolic-LU pattern caches** — deck AC sweeps and deck
//!    `.OP` solves, keyed by the circuit's structural hash, reuse the
//!    AMD analysis across jobs whose matrices share a sparsity pattern
//!    (the solver compares the analyzed pattern exactly, so a stale hint
//!    is merely replaced). The AC and DC patterns of one circuit differ,
//!    so each analysis has its own cache.
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

use ind101_circuit::{Circuit, CircuitError, Element, RescuePolicy, ResilienceOptions};
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
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

mod blake2b;

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
    /// The solver failed (singular system, non-convergence, an answer
    /// above its backward-error tolerance, …).
    Solve {
        /// Job name.
        job: String,
        /// The typed solver error.
        err: CircuitError,
    },
    /// A server lock was poisoned: a thread panicked while holding it,
    /// so the state it guards cannot be trusted.
    Poisoned {
        /// Job name.
        job: String,
        /// Which lock: `"result cache"`, `"job queue"` or
        /// `"result slot"`.
        lock: &'static str,
    },
    /// A batch ended without a result for this job: the worker that
    /// would have run it stopped first.
    NoResult {
        /// Job name.
        job: String,
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
            Self::Solve { job, err } => write!(f, "job {job}: solve: {err}"),
            Self::Poisoned { job, lock } => write!(
                f,
                "job {job}: the server's {lock} lock was poisoned by a panic"
            ),
            Self::NoResult { job } => write!(f, "job {job}: worker terminated without a result"),
            Self::Extract { job, what } => write!(f, "job {job}: extract: {what}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Parse { err, .. } => Some(err),
            Self::Solve { err, .. } => Some(err),
            _ => None,
        }
    }
}

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
    /// Distinct AC sparsity patterns with a cached symbolic analysis.
    pub lu_patterns: usize,
    /// Distinct DC (`.OP`) sparsity patterns with a cached symbolic
    /// analysis.
    pub dc_patterns: usize,
}

enum CacheSlot {
    /// Another worker is solving this key; wait on the condvar.
    InFlight,
    /// Finished successfully.
    Done(Arc<JobOutcome>),
}

/// A job's content key: the BLAKE2b-256 digest of its canonical payload
/// (see [`payload_key`]), 128-bit collision resistant. The map compares
/// whole digests with `Eq`; its own hash only picks the bucket.
type PayloadKey = [u8; 32];

/// What a result-cache lookup found.
enum Lookup {
    /// A finished result.
    Hit(Arc<JobOutcome>),
    /// Another worker is solving this payload.
    InFlight,
    /// The slot was free and is now claimed by the caller, who must
    /// [`ResultCache::settle`] it.
    Claimed,
}

struct ResultCache<S = RandomState> {
    slots: HashMap<PayloadKey, CacheSlot, S>,
    hits: u64,
    misses: u64,
}

impl<S: BuildHasher> ResultCache<S> {
    fn with_hasher(hasher: S) -> Self {
        Self {
            slots: HashMap::with_hasher(hasher),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks `key` up, counting a finished result as a hit and a free
    /// slot — which the caller now holds — as a miss.
    fn lookup(&mut self, key: PayloadKey) -> Lookup {
        match self.slots.get(&key) {
            Some(CacheSlot::Done(res)) => {
                self.hits += 1;
                Lookup::Hit(Arc::clone(res))
            }
            Some(CacheSlot::InFlight) => Lookup::InFlight,
            None => {
                self.slots.insert(key, CacheSlot::InFlight);
                self.misses += 1;
                Lookup::Claimed
            }
        }
    }

    /// Settles a claim: a complete result is stored for later identical
    /// jobs; `None` (a failure, or a sweep stopped early) frees the slot,
    /// so a later identical job retries.
    fn settle(&mut self, key: PayloadKey, complete: Option<&Arc<JobOutcome>>) {
        match complete {
            Some(outcome) => {
                self.slots.insert(key, CacheSlot::Done(Arc::clone(outcome)));
            }
            None => {
                self.slots.remove(&key);
            }
        }
    }
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
    patterns: PatternCache,
    dc_patterns: PatternCache,
}

/// Symbolic analyses by circuit structure hash.
type PatternCache = Mutex<HashMap<u64, Arc<SymbolicLu>>>;

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
            results: Mutex::new(ResultCache::with_hasher(RandomState::new())),
            done: Condvar::new(),
            patterns: Mutex::new(HashMap::new()),
            dc_patterns: Mutex::new(HashMap::new()),
        }
    }

    /// Snapshot of the reuse counters. A poisoned lock is read through:
    /// the counters are plain integers that a panic cannot leave torn.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let r = self.results.lock().unwrap_or_else(PoisonError::into_inner);
        let count = |c: &PatternCache| c.lock().unwrap_or_else(PoisonError::into_inner).len();
        ServeStats {
            cache_hits: r.hits,
            cache_misses: r.misses,
            gmd: self.gmd.stats(),
            lu_patterns: count(&self.patterns),
            dc_patterns: count(&self.dc_patterns),
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
    /// A poisoned lock fails the jobs it touches with
    /// [`ServeError::Poisoned`]; a job no worker reached reports
    /// [`ServeError::NoResult`].
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
                    // A poisoned queue stops the worker; the jobs it
                    // leaves are reported below.
                    let Ok(mut queue) = next.lock() else { return };
                    let i = *queue;
                    if i >= n {
                        return;
                    }
                    *queue += 1;
                    drop(queue);
                    let job = &file.jobs[i];
                    let (outcome, cached) = self.run_job_with(job, cancel);
                    if let Ok(mut slot) = out[i].lock() {
                        *slot = Some(JobResult {
                            name: job.name.clone(),
                            outcome,
                            cached,
                        });
                    }
                });
            }
        });
        let queue_poisoned = next.is_poisoned();
        out.into_iter()
            .zip(&file.jobs)
            .map(|(slot, job)| {
                let failed = |err| JobResult {
                    name: job.name.clone(),
                    outcome: Err(err),
                    cached: false,
                };
                let job = job.name.clone();
                match slot.into_inner() {
                    Ok(Some(result)) => result,
                    Ok(None) if queue_poisoned => failed(ServeError::Poisoned {
                        job,
                        lock: "job queue",
                    }),
                    Ok(None) => failed(ServeError::NoResult { job }),
                    Err(_) => failed(ServeError::Poisoned {
                        job,
                        lock: "result slot",
                    }),
                }
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
    /// A result cache poisoned before the job could claim its slot
    /// fails the job with [`ServeError::Poisoned`]. One poisoned after
    /// the solve leaves the answer uncached but still returns it.
    ///
    /// A `path` deck is read once: the job is keyed and solved from that
    /// one text, so a file that changes mid-job cannot file one
    /// content's answer under another's key.
    ///
    /// A deck AC sweep or a loop-bus extraction that `cancel` or an
    /// exhausted wall or memory budget stopped early is returned but not
    /// cached, as a failure is not: the key includes neither the token
    /// nor how much of the budget was left.
    pub fn run_job_with(
        &self,
        job: &JobRequest,
        cancel: Option<&CancelToken>,
    ) -> (Result<Arc<JobOutcome>, ServeError>, bool) {
        let (kind, payload) = match payload(job) {
            Ok(p) => p,
            Err(e) => return (Err(e), false),
        };
        let key = payload_key(kind, &payload, &job.options);
        let poisoned = || {
            let err = ServeError::Poisoned {
                job: job.name.clone(),
                lock: "result cache",
            };
            (Err(err), false)
        };
        // Claim the key or wait for whoever holds it. Failures and
        // stopped sweeps are handed to current waiters by dropping the
        // claim, so a later identical submission retries instead of
        // caching them.
        {
            let Ok(mut cache) = self.results.lock() else {
                return poisoned();
            };
            loop {
                match cache.lookup(key) {
                    Lookup::Hit(res) => return (Ok(res), true),
                    Lookup::InFlight => match self.done.wait(cache) {
                        Ok(woken) => cache = woken,
                        Err(_) => return poisoned(),
                    },
                    Lookup::Claimed => break,
                }
            }
        }
        let res = self.solve(job, &payload, cancel);
        if let Ok(mut cache) = self.results.lock() {
            let complete = res.as_ref().ok().filter(|(_, stopped)| !stopped);
            cache.settle(key, complete.map(|(outcome, _)| outcome));
        }
        self.done.notify_all();
        (res.map(|(outcome, _)| outcome), false)
    }

    /// Solves a claimed job; the flag is whether a sweep stopped early.
    fn solve(
        &self,
        job: &JobRequest,
        payload: &str,
        cancel: Option<&CancelToken>,
    ) -> Result<(Arc<JobOutcome>, bool), ServeError> {
        let (outcome, stopped) = match &job.spec {
            // A deck job's payload is the deck text it was keyed by.
            JobSpec::Deck(_) => self.run_deck(job, payload, cancel)?,
            JobSpec::FilamentGrid(grid) => (self.run_grid(job, grid)?, false),
            JobSpec::LoopBus(bus) => self.run_loop_bus(job, bus, cancel)?,
        };
        Ok((Arc::new(outcome), stopped))
    }

    fn run_deck(
        &self,
        job: &JobRequest,
        src: &str,
        cancel: Option<&CancelToken>,
    ) -> Result<(JobOutcome, bool), ServeError> {
        let name = &job.name;
        let parse_err = |err: NetlistError| ServeError::Parse {
            job: name.clone(),
            err,
        };
        let deck = parse_deck(src).map_err(parse_err)?;
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
        let mut stopped = false;
        for plan in &lowered.analyses {
            match plan {
                AnalysisPlan::Op => {
                    let hint = cached_pattern(&self.dc_patterns, structure_hash(&c), || {
                        c.dc_symbolic()
                    });
                    let (op, _) = c
                        .dc_op_with(&RescuePolicy::disabled(), hint)
                        .map_err(|e| solve_err(name, e))?;
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
                    let f0 = opts.freqs_hz.first().copied();
                    let hint = cached_pattern(&self.patterns, structure_hash(&c), || {
                        c.ac_symbolic(f0?)
                    });
                    let sweep = c
                        .ac_sweep_resilient(opts, &cfg, &resilience, hint)
                        .map_err(|e| solve_err(name, e))?;
                    stopped |= sweep.report.stopped.is_some();
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
                    let res = c.transient(opts).map_err(|e| solve_err(name, e))?;
                    report.tran_steps = Some(res.len());
                }
            }
        }
        Ok((JobOutcome::Deck(report), stopped))
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
    ) -> Result<(JobOutcome, bool), ServeError> {
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
        .map_err(|e| solve_err(&job.name, e))?;
        let outcome = JobOutcome::LoopBus(LoopBusReport {
            freqs_hz: got.extraction.freqs_hz,
            r_ohm: got.extraction.r_ohm,
            l_h: got.extraction.l_h,
        });
        Ok((outcome, got.report.stopped.is_some()))
    }
}

/// Maps a solver failure, keeping budget exhaustion distinguishable.
fn solve_err(job: &str, err: CircuitError) -> ServeError {
    let job = job.to_owned();
    if matches!(err, CircuitError::BudgetExceeded { .. }) {
        ServeError::Budget {
            job,
            what: err.to_string(),
        }
    } else {
        ServeError::Solve { job, err }
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

/// Looks up (or computes with `analyze` and caches) the symbolic
/// analysis under structure hash `key`; `None` when the circuit's plan
/// is dense. A structure-hash collision at worst hands the solve a
/// non-matching hint, which the solver's exact pattern comparison
/// refuses before any numeric work.
fn cached_pattern(
    cache: &PatternCache,
    key: u64,
    analyze: impl FnOnce() -> Option<Arc<SymbolicLu>>,
) -> Option<Arc<SymbolicLu>> {
    if let Some(sym) = cache.lock().ok()?.get(&key) {
        return Some(Arc::clone(sym));
    }
    let sym = analyze()?;
    if let Ok(mut patterns) = cache.lock() {
        patterns.entry(key).or_insert_with(|| Arc::clone(&sym));
    }
    Some(sym)
}

/// FNV-1a 64-bit (the pattern caches' structure hash).
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

/// A job's kind tag and payload text, obtained once per job: a deck's
/// text (borrowed from an inline job, read once from a `path` job's
/// file) or a geometry spec's debug form.
fn payload(job: &JobRequest) -> Result<(&'static str, Cow<'_, str>), ServeError> {
    Ok(match &job.spec {
        JobSpec::Deck(DeckSource::Inline(text)) => ("deck", Cow::Borrowed(text)),
        JobSpec::Deck(DeckSource::Path(path)) => (
            "deck",
            Cow::Owned(std::fs::read_to_string(path).map_err(|e| ServeError::Io {
                job: job.name.clone(),
                what: format!("{path}: {e}"),
            })?),
        ),
        JobSpec::FilamentGrid(g) => ("grid", Cow::Owned(format!("{g:?}"))),
        JobSpec::LoopBus(b) => ("loop_bus", Cow::Owned(format!("{b:?}"))),
    })
}

/// Content key: the BLAKE2b-256 digest of the job's canonical payload —
/// kind tag, payload text (the deck text for deck jobs, whether inline
/// or read from a file, so a `path` deck and an inline deck with the
/// same text share one entry; or the spec's debug form) and the options
/// token, each prefixed by its byte length as a little-endian `u64` so
/// the encoding is unambiguous. The fields stream into the hash in
/// place; the payload is not copied. The job name is deliberately
/// excluded: two differently named but identical jobs share one solve.
/// No I/O: [`payload`] obtained the text.
fn payload_key(kind: &str, payload: &str, options: &JobOptions) -> PayloadKey {
    let mut h = blake2b::Blake2b::new();
    for field in [kind, payload, &options.cache_token()] {
        h.update(&(field.len() as u64).to_le_bytes());
        h.update(field.as_bytes());
    }
    h.finish()
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

    fn key(job: &JobRequest) -> PayloadKey {
        let (kind, text) = payload(job).unwrap();
        payload_key(kind, &text, &job.options)
    }

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
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn one_character_changes_the_key() {
        let a = deck_job("a", "t\nR1 x 0 1\n.OP\n");
        let b = deck_job("a", "t\nR1 x 0 2\n.OP\n");
        assert_ne!(key(&a), key(&b));
    }

    /// The key is BLAKE2b-256 over three length-prefixed fields, as
    /// this Python computes it:
    ///
    /// ```text
    /// import hashlib, struct
    /// h = hashlib.blake2b(digest_size=32)
    /// for f in [b"deck", b"t\nR1 x 0 1\n.OP\n",
    ///           b"backend=Auto;policy=abort;wall=None;mem=None;verify=true"]:
    ///     h.update(struct.pack("<Q", len(f)) + f)
    /// print(h.hexdigest())
    /// ```
    #[test]
    fn payload_key_matches_the_length_prefixed_construction() {
        let job = deck_job("golden", "t\nR1 x 0 1\n.OP\n");
        assert_eq!(
            job.options.cache_token(),
            "backend=Auto;policy=abort;wall=None;mem=None;verify=true"
        );
        let hex: String = key(&job).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "710740c0f44cc46391fd5939ad7000ea9bf9c77c0ff93853ef4ae81ada5afa6c"
        );
    }

    #[test]
    fn options_change_the_key() {
        let mut b = deck_job("a", "t\nR1 x 0 1\n.OP\n");
        b.options.verify = false;
        let a = deck_job("a", "t\nR1 x 0 1\n.OP\n");
        assert_ne!(key(&a), key(&b));
    }

    /// Hashes every key to the same value, so every key lands in one
    /// bucket of the map.
    #[derive(Default)]
    struct ConstHasher;

    impl std::hash::Hasher for ConstHasher {
        fn finish(&self) -> u64 {
            7
        }

        fn write(&mut self, _bytes: &[u8]) {}
    }

    #[test]
    fn equal_hashes_never_share_a_slot() {
        use std::hash::BuildHasherDefault;
        let hasher = BuildHasherDefault::<ConstHasher>::default();
        let a = key(&deck_job("a", "t\nR1 x 0 1\n.OP\n"));
        let b = key(&deck_job("b", "t\nR1 x 0 2\n.OP\n"));
        assert_eq!(hasher.hash_one(a), hasher.hash_one(b));
        let outcome = |nodes| {
            Arc::new(JobOutcome::Deck(DeckReport {
                nodes,
                op_max_v: None,
                ac_solved: None,
                ac_peak: None,
                tran_steps: None,
            }))
        };
        let mut cache = ResultCache::with_hasher(hasher);
        assert!(matches!(cache.lookup(a), Lookup::Claimed));
        cache.settle(a, Some(&outcome(1)));
        // `b` hashes like `a` but is another payload: a miss, not `a`'s
        // result.
        assert!(matches!(cache.lookup(b), Lookup::Claimed));
        cache.settle(b, Some(&outcome(2)));
        for (key, nodes) in [(a, 1), (b, 2)] {
            match cache.lookup(key) {
                Lookup::Hit(res) => assert_eq!(*res, *outcome(nodes)),
                _ => panic!("expected a hit"),
            }
        }
        assert_eq!(cache.slots.len(), 2);
        assert_eq!((cache.hits, cache.misses), (2, 2));
        // A failed claim frees its slot for a retry and leaves the other.
        let c = key(&deck_job("c", "t\nR1 x 0 3\n.OP\n"));
        assert!(matches!(cache.lookup(c), Lookup::Claimed));
        assert!(matches!(cache.lookup(c), Lookup::InFlight));
        cache.settle(c, None);
        assert!(matches!(cache.lookup(c), Lookup::Claimed));
        assert!(matches!(cache.lookup(a), Lookup::Hit(_)));
    }

    #[test]
    fn poisoned_result_cache_is_a_typed_error() {
        let server = JobServer::new();
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = server.results.lock().unwrap();
                panic!("poisoning the result cache on purpose");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(server.results.is_poisoned());
        let job = deck_job("a", "t\nR1 x 0 1\n.OP\n");
        let want = ServeError::Poisoned {
            job: "a".to_owned(),
            lock: "result cache",
        };
        let (res, cached) = server.run_job(&job);
        assert_eq!(res.unwrap_err(), want);
        assert!(!cached);
        let file = JobFile {
            threads: Some(2),
            jobs: vec![job.clone(), deck_job("b", "t\nR1 x 0 2\n.OP\n")],
        };
        let results = server.run_file(&file);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].name, "a");
        assert_eq!(results[0].outcome.as_ref().unwrap_err(), &want);
        assert!(matches!(
            &results[1].outcome,
            Err(ServeError::Poisoned { job, lock: "result cache" }) if job == "b"
        ));
        // The counters stay readable through the poison.
        assert_eq!(server.stats().cache_misses, 0);
    }

    #[test]
    fn solver_errors_reach_the_client_typed() {
        // Two voltage sources fight over one node: the solver's typed
        // singular-system error is what the job reports, not a string.
        let server = JobServer::new();
        let mut job = deck_job("fight", "t\nV1 x 0 DC 1\nV2 x 0 DC 2\nR1 x 0 1\n.OP\n");
        job.options.verify = false;
        let (res, _) = server.run_job(&job);
        match res {
            Err(ServeError::Solve {
                job,
                err: CircuitError::SingularSystem { .. },
            }) => assert_eq!(job, "fight"),
            other => panic!("expected a typed singular system, got {other:?}"),
        }
    }

    /// A `path` deck is keyed by the text read from its file: a path job
    /// and an inline job with that text share one cache entry.
    #[test]
    fn path_and_inline_decks_share_an_entry() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/decks/");
        let path_job = |file: &str| JobRequest {
            name: file.to_owned(),
            spec: JobSpec::Deck(DeckSource::Path(format!("{dir}{file}"))),
            options: JobOptions::default(),
        };
        let text = include_str!("../../../tests/decks/sec4_bus.cir");
        let server = JobServer::new();
        let (first, cached) = server.run_job(&path_job("sec4_bus.cir"));
        assert!(!cached);
        let (second, cached) = server.run_job(&deck_job("inline", text));
        assert!(cached);
        assert_eq!(first.unwrap(), second.unwrap());
        let stats = server.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        let (missing, _) = server.run_job(&path_job("no_such_deck.cir"));
        assert!(matches!(missing, Err(ServeError::Io { .. })), "{missing:?}");
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
