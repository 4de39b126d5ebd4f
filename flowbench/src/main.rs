//! flowbench command line.
//!
//! ```text
//! flowbench [--workload NAME[,NAME…]] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! flowbench compare A.jsonl B.jsonl
//! ```
//!
//! Each workload runs in a child process of its own, pinned to one
//! core, so every run sees `available_parallelism() == 1` and fresh
//! caches. The command prints every metric with its unit, appends one
//! JSON record per workload to `--out` (default
//! `flowbench/target/flowbench.jsonl`), ends with the workload's result
//! line, and exits non-zero when any check failed. Traced runs also
//! write their spans to `flowbench/target/trace-<workload>.jsonl`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use flowbench::compare::{bounds, compare, Side};
use flowbench::harness::RunConfig;
use flowbench::metrics::find;
use flowbench::record::Record;
use flowbench::{run_workload, WORKLOADS};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Default measuring time per workload run, seconds.
const DEFAULT_SECONDS: f64 = 25.0;
/// A workload child that has not finished by then is killed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);
/// Environment overrides that would change which solver the flows use;
/// children run without them so the inputs are the benchmark's alone.
const SOLVER_OVERRIDES: [&str; 2] = ["IND101_SOLVER_BACKEND", "IND101_EXTRACTION_BACKEND"];

const USAGE: &str = "usage: flowbench [--workload NAME[,NAME...]] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       flowbench compare A.jsonl B.jsonl";

fn target_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    child: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Self {
            workloads: Vec::new(),
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            out: target_dir().join("flowbench.jsonl"),
            child: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--child" {
                o.child = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    for w in value.split(',') {
                        if !WORKLOADS.contains(&w) {
                            return Err(format!("unknown workload `{w}`"));
                        }
                        o.workloads.push(w.to_owned());
                    }
                }
                "--seed" => o.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
                "--seconds" => {
                    o.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?;
                }
                "--trace" => {
                    o.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    };
                }
                "--out" => o.out = PathBuf::from(value),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if o.workloads.is_empty() {
            o.workloads = WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
        }
        Ok(o)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        compare_cmd(&args[1..])
    } else {
        match Options::parse(&args) {
            Ok(o) if o.child => child(&o),
            Ok(o) => orchestrate(&o),
            Err(e) => {
                eprintln!("flowbench: {e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}

/// Child mode: pin to one core, measure one workload, print its record.
fn child(o: &Options) -> i32 {
    if let Err(e) = os::die_with_parent() {
        eprintln!("flowbench: warning: the child may outlive its parent: {e}");
    }
    if let Err(e) = os::pin_to_one_core() {
        eprintln!("flowbench: warning: running unpinned: {e}");
    }
    let [name] = o.workloads.as_slice() else {
        eprintln!("flowbench: a child runs exactly one workload");
        return 2;
    };
    let cfg = RunConfig {
        seed: o.seed,
        seconds: o.seconds,
        traced: o.trace,
    };
    let run = match run_workload(name, &cfg) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("flowbench: {name}: {e}");
            return 1;
        }
    };
    if o.trace {
        let path = target_dir().join(format!("trace-{name}.jsonl"));
        let written = std::fs::create_dir_all(target_dir())
            .and_then(|()| std::fs::write(&path, run.tracer.to_jsonl()));
        if let Err(e) = written {
            eprintln!("flowbench: cannot write {}: {e}", path.display());
            return 1;
        }
    }
    println!("{}", run.record.to_json());
    0
}

/// Runs each workload in its own pinned child and reports.
fn orchestrate(o: &Options) -> i32 {
    let mut ok = true;
    for w in &o.workloads {
        let rec = match run_child(w, o) {
            Ok(rec) => rec,
            Err(e) => {
                eprintln!("flowbench: {w}: {e}");
                ok = false;
                continue;
            }
        };
        print_record(&rec);
        if let Err(e) = append_line(&o.out, &rec.to_json()) {
            eprintln!("flowbench: cannot append to {}: {e}", o.out.display());
            ok = false;
        }
        ok &= rec.correct();
        println!("{}", rec.result_line());
    }
    i32::from(!ok)
}

fn run_child(workload: &str, o: &Options) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for var in SOLVER_OVERRIDES {
        cmd.env_remove(var);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let mut stdout = child.stdout.take().ok_or("child has no stdout")?;
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            waited => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(match waited {
                    Err(e) => format!("waiting for child: {e}"),
                    Ok(_) => format!("child did not finish within {} s", CHILD_TIMEOUT.as_secs()),
                });
            }
        }
    };
    let out = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_owned())?
        .map_err(|e| format!("reading child output: {e}"))?;
    let status = status?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let line = out.lines().last().ok_or("child printed no record")?;
    Record::from_json(line)
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")?;
    f.flush()
}

fn print_record(r: &Record) {
    println!(
        "== {} (seed {}, {}): {} attempted, {} failed, max_rel_err {:e} ==",
        r.workload,
        r.seed,
        if r.traced { "traced" } else { "untraced" },
        r.attempted,
        r.failed,
        r.max_rel_err
    );
    for f in &r.failures {
        println!("  FAILED: {f}");
    }
    println!(
        "  {:<44} {:>14} {:<9} {:>6} {:>14} {:>14}  moves",
        "metric", "value", "unit", "n", "p25", "p75"
    );
    for (name, m) in &r.metrics {
        let moves = find(name).map_or("", |d| d.moves);
        println!(
            "  {name:<44} {:>14.6e} {:<9} {:>6} {:>14.6e} {:>14.6e}  {moves}",
            m.value, m.unit, m.n, m.p25, m.p75
        );
    }
}

fn read_records(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(Record::from_json)
        .collect()
}

/// `flowbench compare A.jsonl B.jsonl`.
fn compare_cmd(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let loaded = (|| -> Result<_, String> {
        let text =
            std::fs::read_to_string(&bench).map_err(|e| format!("{}: {e}", bench.display()))?;
        Ok((bounds(&text)?, read_records(a)?, read_records(b)?))
    })();
    let (bounds, ra, rb) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("flowbench compare: {e}");
            return 2;
        }
    };
    let rows = compare(&ra, &rb, &bounds);
    println!(
        "{:<14} {:<20} {:>12} {:>25} {:>12} {:>25} {:>7}  verdict",
        "workload", "metric", "A median", "A [p25, p75]", "B median", "B [p25, p75]", "bound"
    );
    let side = |s: Option<Side>| match s {
        Some(s) => format!("{:>12.5e} [{:>11.4e}, {:>11.4e}]", s.median, s.p25, s.p75),
        None => format!("{:>12} {:>25}", "-", "-"),
    };
    let mut failed = false;
    for r in &rows {
        println!(
            "{:<14} {:<20} {} {} {:>7.3}  {}",
            r.workload,
            r.metric,
            side(r.a),
            side(r.b),
            r.bound,
            r.verdict.as_str()
        );
        failed |= r.verdict.fails();
    }
    i32::from(failed)
}

/// Process set-up of a workload child: it is killed with its parent,
/// and it is pinned to one core, so thread-parallel kernels see
/// `available_parallelism() == 1`.
#[cfg(target_os = "linux")]
mod os {
    use std::os::raw::{c_int, c_ulong};

    /// Bytes in glibc's `cpu_set_t` (1024 CPUs).
    const CPU_SET_BYTES: usize = 128;
    /// `prctl` option: signal to deliver when the parent exits.
    const PR_SET_PDEATHSIG: c_int = 1;
    /// `SIGKILL`.
    const SIGKILL: c_ulong = 9;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
        fn sched_getcpu() -> i32;
        fn prctl(option: c_int, ...) -> c_int;
    }

    /// Asks the kernel to kill this process when its parent exits, so
    /// a killed benchmark leaves no child measuring in the background.
    pub fn die_with_parent() -> Result<(), String> {
        // SAFETY: PR_SET_PDEATHSIG takes one unsigned long signal
        // number and touches no memory of the caller.
        if unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL) } != 0 {
            return Err(std::io::Error::last_os_error().to_string());
        }
        Ok(())
    }

    /// Restricts the calling thread (and every thread it starts later)
    /// to the core it is running on; returns that core.
    pub fn pin_to_one_core() -> Result<usize, String> {
        let mut mask = [0u8; CPU_SET_BYTES];
        // SAFETY: `mask` is a writable buffer of exactly the
        // `CPU_SET_BYTES` bytes passed as its size; pid 0 is the caller.
        if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error().to_string());
        }
        let allowed = |c: usize| mask[c / 8] & (1 << (c % 8)) != 0;
        // SAFETY: no arguments; reads only the calling thread's state.
        let current = unsafe { sched_getcpu() };
        let cpu = usize::try_from(current)
            .ok()
            .filter(|&c| c < CPU_SET_BYTES * 8 && allowed(c))
            .or_else(|| (0..CPU_SET_BYTES * 8).find(|&c| allowed(c)))
            .ok_or("the affinity mask is empty")?;
        let mut one = [0u8; CPU_SET_BYTES];
        one[cpu / 8] = 1 << (cpu % 8);
        // SAFETY: `one` is a readable buffer of exactly the
        // `CPU_SET_BYTES` bytes passed as its size; pid 0 is the caller.
        if unsafe { sched_setaffinity(0, CPU_SET_BYTES, one.as_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error().to_string());
        }
        Ok(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
mod os {
    pub fn die_with_parent() -> Result<(), String> {
        Err("implemented for Linux only".to_owned())
    }

    pub fn pin_to_one_core() -> Result<usize, String> {
        Err("core pinning is implemented for Linux only".to_owned())
    }
}
