//! `ind101-serve`: run a JSON/TOML job file through the job server.
//!
//! ```text
//! cargo run --release -p ind101-serve -- jobs.toml [--threads N]
//! ```
//!
//! `--threads` overrides the file's `threads` field. Deck `path`
//! references are resolved relative to the job file. Exits 1 if any
//! job fails; the per-job outcome and the cache counters are printed
//! either way.

use ind101_serve::{jobs_from_str, JobOutcome, JobServer};
use std::path::Path;

fn main() {
    let mut path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                threads = args.get(i + 1).and_then(|s| s.parse().ok());
                if threads.is_none() {
                    eprintln!("ind101-serve: bad value for --threads");
                    std::process::exit(2);
                }
                i += 2;
            }
            other if path.is_none() => {
                path = Some(other.to_owned());
                i += 1;
            }
            other => {
                eprintln!("ind101-serve: unexpected argument {other}");
                std::process::exit(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: ind101-serve <jobfile.json|jobfile.toml> [--threads N]");
        std::process::exit(2);
    };

    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ind101-serve: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let mut file = match jobs_from_str(&src) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ind101-serve: {path}: {e}");
            std::process::exit(1);
        }
    };
    if threads.is_some() {
        file.threads = threads;
    }
    // Resolve deck paths relative to the job file's directory.
    let base = Path::new(&path).parent().map(Path::to_path_buf);
    if let Some(base) = &base {
        for job in &mut file.jobs {
            if let ind101_netlist::JobSpec::Deck(ind101_netlist::DeckSource::Path(p)) =
                &mut job.spec
            {
                *p = base.join(&*p).to_string_lossy().into_owned();
            }
        }
    }

    let server = JobServer::new();
    let results = server.run_file(&file);
    let mut failed = 0usize;
    for r in &results {
        let tag = if r.cached { " (cached)" } else { "" };
        match &r.outcome {
            Ok(outcome) => match outcome.as_ref() {
                JobOutcome::Deck(d) => {
                    let mut parts = vec![format!("{} nodes", d.nodes)];
                    if let Some(v) = d.op_max_v {
                        parts.push(format!("OP max |V| = {v:.6}"));
                    }
                    if let Some((solved, requested)) = d.ac_solved {
                        parts.push(format!("AC {solved}/{requested} freqs"));
                    }
                    if let Some(p) = d.ac_peak {
                        parts.push(format!("peak |V| = {p:.6}"));
                    }
                    if let Some(s) = d.tran_steps {
                        parts.push(format!("TRAN {s} steps"));
                    }
                    println!("{}: deck: {}{tag}", r.name, parts.join(", "));
                }
                JobOutcome::FilamentGrid(g) => {
                    println!(
                        "{}: grid: {} filaments, L_self in [{:.4e}, {:.4e}] H{tag}",
                        r.name, g.filaments, g.l_self_min, g.l_self_max
                    );
                }
                JobOutcome::LoopBus(b) => {
                    let last = b.freqs_hz.len().saturating_sub(1);
                    if let (Some(f), Some(r_o), Some(l)) =
                        (b.freqs_hz.get(last), b.r_ohm.get(last), b.l_h.get(last))
                    {
                        println!(
                            "{}: loop bus: {} freqs, R({f:.3e}) = {r_o:.4e} Ω, \
                             L = {l:.4e} H{tag}",
                            r.name,
                            b.freqs_hz.len()
                        );
                    } else {
                        println!("{}: loop bus: no frequencies solved{tag}", r.name);
                    }
                }
            },
            Err(e) => {
                failed += 1;
                eprintln!("{e}");
            }
        }
    }
    let stats = server.stats();
    println!(
        "cache: {} hits, {} misses; gmd: {} hits, {} misses; {} LU patterns, {} DC patterns",
        stats.cache_hits,
        stats.cache_misses,
        stats.gmd.hits,
        stats.gmd.misses,
        stats.lu_patterns,
        stats.dc_patterns
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
