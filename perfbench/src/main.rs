//! perfbench — the benchmark every performance claim in this repository is
//! measured with.
//!
//! ```text
//! perfbench --workload <suite-medium|fine-grain|serve-mixed> --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload untraced and prints the end-to-end
//! metrics; `--trace 1` runs it once untraced and once traced (spans,
//! counter deltas and allocation counts), then the layer ladder, prints
//! the per-layer metrics and writes a Chrome trace-event file under
//! `.bench_out/`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` for
//! the workloads and the definition of every metric.

mod kernels;
mod ladder;
mod layers;
mod measure;
mod serve;
mod trace;

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use bots::profile::CountingAlloc;
use bots::runtime::RuntimeStats;

use measure::{median, metric, Metric, Submitted, Tally};
use trace::Tracer;

/// Counts allocation calls only while [`COUNTING`] is set — during the
/// traced pass — so untraced passes pay one relaxed load per allocation
/// and nothing else. Only `bots_profile::alloc_calls` is read: frees go
/// straight to the system allocator, so the live-byte gauges of
/// `CountingAlloc` are not meaningful here.
struct BenchAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

// SAFETY: every method forwards to `System` or to `CountingAlloc`, which
// itself forwards to `System`; both hand out and take back blocks of the
// same system allocator, so a block may be freed by either path.
unsafe impl GlobalAlloc for BenchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: BenchAlloc = BenchAlloc;

/// The workloads; see `README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SuiteMedium,
    FineGrain,
    ServeMixed,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "suite-medium" => Ok(Workload::SuiteMedium),
            "fine-grain" => Ok(Workload::FineGrain),
            "serve-mixed" => Ok(Workload::ServeMixed),
            other => Err(format!(
                "unknown workload '{other}' (suite-medium|fine-grain|serve-mixed)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SuiteMedium => "suite-medium",
            Workload::FineGrain => "fine-grain",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    fn pass(self, ctx: &Ctx, tracer: &mut Tracer) -> Pass {
        match self {
            Workload::SuiteMedium => kernels::suite_medium(ctx, tracer),
            Workload::FineGrain => kernels::fine_grain(ctx, tracer),
            Workload::ServeMixed => serve::serve_mixed(ctx, tracer),
        }
    }
}

/// Command-line arguments, checked.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err(format!("--seconds {s} outside (0, 120]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace {v}: expected 0 or 1")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What every workload pass reads: the seed and the time budget.
#[derive(Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    /// Whole suite passes `suite-medium` makes even past `seconds`.
    pub min_passes: usize,
}

/// Set-up timings of one pass: medians over [`SETUP_REPS`] repetitions.
#[derive(Debug, Default, Clone, Copy)]
pub struct Setup {
    pub total_s: f64,
    pub runtime_s: f64,
    pub inputs_s: f64,
}

impl Setup {
    pub fn plus(self, o: Setup) -> Setup {
        Setup {
            total_s: self.total_s + o.total_s,
            runtime_s: self.runtime_s + o.runtime_s,
            inputs_s: self.inputs_s + o.inputs_s,
        }
    }

    /// Field-wise median of several set-ups.
    pub fn median_of(setups: &[Setup]) -> Setup {
        let field = |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        Setup {
            total_s: field(|s| s.total_s),
            runtime_s: field(|s| s.runtime_s),
            inputs_s: field(|s| s.inputs_s),
        }
    }
}

/// Set-up repetitions per team: their median is `setup_s`.
pub const SETUP_REPS: usize = 5;

/// Runs a set-up `SETUP_REPS` times and keeps the last result, dropping
/// each earlier one before the next starts (so at most one team exists).
/// `make` returns its product with its own runtime and input timings.
pub fn repeat_setup<T>(mut make: impl FnMut() -> (T, f64, f64)) -> (T, Setup) {
    let (mut totals, mut runtimes, mut inputs) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        let (product, runtime_s, inputs_s) = make();
        totals.push(t0.elapsed().as_secs_f64());
        runtimes.push(runtime_s);
        inputs.push(inputs_s);
        kept = Some(product);
    }
    let setup = Setup {
        total_s: median(&totals),
        runtime_s: median(&runtimes),
        inputs_s: median(&inputs),
    };
    (kept.expect("SETUP_REPS >= 1"), setup)
}

/// Everything one pass of a workload measured.
pub struct Pass {
    pub setup: Setup,
    /// Team sizes the pass ran on.
    pub teams: Vec<usize>,
    /// Regions kept in flight on each team (1 for kernel calls).
    pub in_flight: Vec<usize>,
    pub tally: Tally,
    pub submitted: Submitted,
    /// `stats()` delta over the timed phase (summed over teams).
    pub stats: RuntimeStats,
    /// Allocation calls in the timed phase (counted in the traced pass):
    /// inside the `run_parallel` calls, or the whole serving loop.
    pub allocs: u64,
    /// Timed wall per operation (suite-medium: in its last suite
    /// pass), the base of `trace.overhead_frac`.
    pub cost_s: f64,
    /// End-to-end metrics other than `setup_s` and `peak_rss_mb`.
    pub e2e: Vec<Metric>,
    /// What `region_p99_us` reports: the percentile the tail rule chose
    /// and the sample count it chose it for.
    pub tail: (f64, usize),
}

/// Seeded permutation of `0..n`.
pub fn shuffled(seed: u64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    bots::inputs::Rng::new(seed).shuffle(&mut v);
    v
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The run stamp: what a result needs to be reproduced and compared.
fn stamp(args: &Args, nproc: usize, pass: &Pass) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let list = |v: &[usize]| {
        v.iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"nproc\":{},\"teams\":[{}],\
         \"in_flight\":[{}],\"traced\":{},\"commit\":\"{}\",\"rustc\":\"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        nproc,
        list(&pass.teams),
        list(&pass.in_flight),
        args.trace,
        json_escape(&env("PERFBENCH_COMMIT")),
        json_escape(&env("PERFBENCH_RUSTC")),
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        // A traced run makes an untraced and a traced pass: one suite
        // pass each keeps it within its time limit.
        min_passes: if args.trace { 1 } else { 2 },
    };

    let mut tally = Tally::default();
    let mut metrics: Vec<Metric>;
    let base = args.workload.pass(&ctx, &mut Tracer::off());
    let stamp_line = stamp(&args, nproc, &base);
    println!("stamp {stamp_line}");
    tally.add(base.tally);
    tally.add(check_ledger(&base));

    if !args.trace {
        metrics = vec![metric("setup_s", base.setup.total_s, "s")];
        metrics.extend(base.e2e.iter().cloned());
        metrics.push(metric("peak_rss_mb", measure::peak_rss_mb(), "MB"));
    } else {
        // Room for two spans per region at ~20k regions/s, plus slack.
        let mut tracer = Tracer::with_capacity(64_000 * ctx.seconds.ceil() as usize + 4096);
        COUNTING.store(true, Ordering::Relaxed);
        let traced = args.workload.pass(&ctx, &mut tracer);
        tally.add(traced.tally);
        tally.add(check_ledger(&traced));
        let mut ladder_tally = Tally::default();
        let rungs = ladder::run(&mut tracer, &mut ladder_tally);
        COUNTING.store(false, Ordering::Relaxed);
        tally.add(ladder_tally);

        metrics = layers::common(&traced);
        metrics.extend(layers::from_spans(tracer.spans()));
        metrics.extend(rungs);
        metrics.push(metric(
            "trace.overhead_frac",
            traced.cost_s / base.cost_s - 1.0,
            "ratio",
        ));
        if tracer.dropped() > 0 {
            eprintln!(
                "perfbench: trace buffer full, {} spans dropped",
                tracer.dropped()
            );
        }
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        match std::fs::create_dir_all(dir).and_then(|_| tracer.write_chrome(&path, &stamp_line)) {
            Ok(()) => println!("trace {} ({} spans)", path.display(), tracer.spans().len()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                tally.failed += 1;
            }
        }
    }

    for m in &metrics {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not finite", m.name);
            tally.failed += 1;
        }
    }
    for m in &metrics {
        println!("metric {:<28} {:>16} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        let (p, n) = base.tail;
        println!("tail region_p99_us is p{p} of {n} samples");
    }
    println!(
        "failed_frac {} ({} failed of {} attempted)",
        measure::ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, v, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}

/// Ends a run whose runtime lost a region: such a team can be neither
/// joined nor dropped, so the run reports its failures and exits at once.
pub fn exit_stalled(tally: Tally) -> ! {
    println!(
        "{{\"correct\":false,\"attempted\":{},\"failed\":{},\"metrics\":{{}}}}",
        tally.attempted.max(1),
        tally.failed.max(1)
    );
    std::process::exit(1)
}

/// Ledger violations of one pass, each counted as a failed operation.
fn check_ledger(pass: &Pass) -> Tally {
    let bad = measure::ledger(&pass.stats, &pass.submitted);
    for why in &bad {
        eprintln!("perfbench: LEDGER {why}");
    }
    Tally {
        attempted: 0,
        failed: bad.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::ServeMixed);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "fine-grain", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "fine-grain", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&[
            "--workload",
            "fine-grain",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(42, 9);
        assert_eq!(a, shuffled(42, 9));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }
}
