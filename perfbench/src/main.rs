//! The repository's benchmark: one command per run that generates seeded
//! inputs, times one workload, checks the program's outputs and prints
//! every metric by name with its unit.
//!
//! ```text
//! perfbench --workload <paper-grid|uniform-small|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics; with `--trace 1`, the per-layer metrics, measured
//! from spans this benchmark records around calls into the program's
//! public functions.  The line before it records the run's context.  The
//! exit code is 1 when the output check fails and 2 on bad arguments.

mod calib;
mod campaign;
mod inputs;
mod layers;
mod metrics;
mod serve;
mod stats;
mod trace;

use mbfi_core::report::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperGrid,
    UniformSmall,
    ServeMixed,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("paper-grid", Workload::PaperGrid),
        ("uniform-small", Workload::UniformSmall),
        ("serve-mixed", Workload::ServeMixed),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .iter()
                            .find(|(n, _)| *n == value)
                            .map(|(_, w)| *w)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What a workload run hands back for printing.
pub struct RunReport {
    pub values: metrics::Values,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, printed to stderr.
    pub errors: Vec<String>,
    /// Workload-specific context for the context line.
    pub context: Json,
    /// Where the spans were written, for a traced run.
    pub spans: Option<PathBuf>,
}

/// Whether the timed section starts another pass: the first pass of every
/// input slot always (of an untraced run; a traced run, the first two, one
/// untraced and one traced), later ones only if a pass as long as the last
/// one would end nearer to `--seconds` than stopping now does.
pub fn another_pass(args: &Args, started: Instant, walls_s: &[f64]) -> bool {
    let first = if args.trace {
        2
    } else {
        inputs::INPUT_SLOTS as usize
    };
    match walls_s.last() {
        Some(last) if walls_s.len() >= first => {
            started.elapsed().as_secs_f64() + last / 2.0 < args.seconds as f64
        }
        _ => true,
    }
}

/// The input slot of pass (round) `pass`: untraced runs cycle through the
/// slots; traced runs, which alternate untraced and traced passes, give
/// each slot one of each in turn.
pub fn slot(args: &Args, pass: u64) -> u64 {
    let step = if args.trace { pass / 2 } else { pass };
    step % inputs::INPUT_SLOTS
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Write a traced run's spans as JSON lines under the Cargo target
/// directory (`CARGO_TARGET_DIR`, else `perfbench/target`).
pub fn spans_out(args: &Args, tracer: &Tracer) -> Option<PathBuf> {
    if !tracer.enabled() {
        return None;
    }
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-spans");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::to_jsonl(&tracer.spans())));
    match written {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// The commit being measured, when run from a git work tree.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => std::fs::read_to_string(Path::new(".git").join(name))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(name))
                    .map(|l| l[..l.len() - name.len()].to_string())
            })
            .map(|s| s.trim().to_string()),
    }
}

/// FNV-1a digest of the measured sources (every file under `crates/` and
/// `perfbench/src/`, by sorted path), which names the code measured where
/// there is no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-grid|uniform-small|serve-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = match args.workload {
        Workload::PaperGrid => campaign::paper_grid(&args),
        Workload::UniformSmall => campaign::uniform_small(&args),
        Workload::ServeMixed => serve::serve_mixed(&args),
    };
    for e in &report.errors {
        eprintln!("perfbench: output check failed: {e}");
    }

    let mut context = Json::object();
    context.set("workload", args.workload.name());
    context.set("seed", args.seed);
    context.set("seconds", args.seconds);
    context.set("trace", args.trace);
    context.set("nproc", nproc());
    context.set("threads", nproc());
    context.set("commit", commit().map_or(Json::Null, Json::from));
    context.set("source_digest", source_digest());
    context.set(
        "failed_frac",
        stats::ratio(report.failed as f64, report.attempted as f64),
    );
    context.set(
        "spans",
        report
            .spans
            .as_ref()
            .map_or(Json::Null, |p| Json::from(p.display().to_string())),
    );
    if let Json::Obj(entries) = report.context {
        for (k, v) in entries {
            context.set(k, v);
        }
    }
    let mut line = Json::object();
    line.set("context", context);
    println!("{}", line.render());
    let catalogue = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    println!(
        "{}",
        report.values.result_line(
            catalogue,
            report.correct,
            report.attempted.max(1),
            report.failed
        )
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_every_argument() {
        assert_eq!(
            parse("--workload serve-mixed --seed 7 --seconds 20 --trace 1"),
            Ok(Args {
                workload: Workload::ServeMixed,
                seed: 7,
                seconds: 20,
                trace: true,
            })
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload paper-grid --seed -1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload paper-grid --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload paper-grid --seed 1 --seconds 1").is_err());
        assert!(parse("--workload paper-grid --seed").is_err());
        assert!(parse("--bogus 1 --workload paper-grid --seed 1 --seconds 1 --trace 0").is_err());
    }

    #[test]
    fn every_slot_gets_a_pass_and_traced_runs_pair_them() {
        let mut args = parse("--workload paper-grid --seed 1 --seconds 1 --trace 0").unwrap();
        let slots: Vec<u64> = (0..10).map(|p| slot(&args, p)).collect();
        assert_eq!(slots, [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]);
        // The first pass of every slot runs even past the deadline.
        let long_ago = Instant::now() - std::time::Duration::from_secs(5);
        assert!(another_pass(&args, long_ago, &[1.0; 7]));
        assert!(!another_pass(&args, long_ago, &[1.0; 8]));
        args.trace = true;
        let slots: Vec<u64> = (0..6).map(|p| slot(&args, p)).collect();
        assert_eq!(slots, [0, 0, 1, 1, 2, 2]);
        assert!(another_pass(&args, long_ago, &[1.0]));
        assert!(!another_pass(&args, long_ago, &[1.0; 2]));
    }

    #[test]
    fn workload_names_are_valid_metric_style_names() {
        for (name, w) in Workload::ALL {
            assert!(metrics::valid_name(name));
            assert_eq!(w.name(), name);
        }
    }
}
