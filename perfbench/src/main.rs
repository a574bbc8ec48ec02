//! `ntg-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2_flow --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each run repeats the workload's closed-loop iteration until
//! `--seconds` have passed, setting up again between iterations, and
//! reports medians. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the traced pipeline, prints the per-layer ones and
//! writes the last pass's spans to `.perfbench_work/<workload>.spans.jsonl`.
//! Every output is checked; the last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See NOTES.md.

mod daemon;
mod spans;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ntg_explore::JobResult;

use crate::daemon::Client;
use crate::traced::{median, quantile};
use crate::workloads::Kind;

/// Set-ups before the first iteration, and again after every
/// iteration or traced pass. `setup_s` is the median of all of them, so
/// like the iterations it samples the host across the whole run.
const SETUPS_PER_ROUND: usize = 5;

/// Canonical-JSONL digests recorded at the seed state, one per line:
/// `<workload> <seed or *> <digest>`.
const RECORDED: &str = include_str!("../digests.txt");

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 3] =
    [("campaign_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 86] = [
    ("platform.build_s", "s"),
    ("cpu.run_s", "s"),
    ("cpu.ticked_per_s", "1/s"),
    ("cpu.visit_ratio", "ratio"),
    ("trace.run_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.events", "count"),
    ("trace.codec.encode_s", "s"),
    ("trace.codec.decode_s", "s"),
    ("trace.codec.bytes", "bytes"),
    ("core.translate_s", "s"),
    ("core.assemble_s", "s"),
    ("core.tg_instructions", "count"),
    ("core.replay_s", "s"),
    ("core.replay_ticked_per_s", "1/s"),
    ("core.replay_skip_ratio", "ratio"),
    ("core.images.encode_s", "s"),
    ("core.images.decode_s", "s"),
    ("sim.ticked_cycles", "count"),
    ("sim.skipped_cycles", "count"),
    ("sim.visit_ratio", "ratio"),
    ("noc.amba.conflicts", "count"),
    ("noc.amba.grant_wait_mean", "cycles"),
    ("noc.amba.utilization", "ratio"),
    ("noc.xpipes.run_s", "s"),
    ("noc.xpipes.cycles_per_s", "1/s"),
    ("noc.xpipes.conflicts", "count"),
    ("noc.xpipes.grant_wait_mean", "cycles"),
    ("noc.xpipes.accepted_rate", "1/cycle"),
    ("platform.parallel.threads", "count"),
    ("platform.parallel.serial_s", "s"),
    ("platform.parallel.run_s", "s"),
    ("platform.parallel.speedup", "ratio"),
    ("platform.parallel.barrier_crossings", "count"),
    ("platform.parallel.barrier_stalls", "count"),
    ("platform.parallel.oversubscribed", "bool"),
    ("explore.cache.trace_hits", "count"),
    ("explore.cache.trace_misses", "count"),
    ("explore.cache.image_hits", "count"),
    ("explore.cache.image_misses", "count"),
    ("explore.cache.disk_hits", "count"),
    ("explore.store.save_s", "s"),
    ("explore.store.load_s", "s"),
    ("explore.store.bytes", "bytes"),
    ("explore.remote.hits", "count"),
    ("explore.remote.misses", "count"),
    ("explore.remote.published", "count"),
    ("explore.remote.errors", "count"),
    ("explore.merge_s", "s"),
    ("serve.http.request_s.p50", "s"),
    ("serve.http.request_s.p99", "s"),
    ("serve.http.requests", "count"),
    ("serve.http.failed", "count"),
    ("serve.blob.put_s", "s"),
    ("serve.blob.get_s", "s"),
    ("serve.job.queue_s", "s"),
    ("serve.job.run_s", "s"),
    ("report.render_s", "s"),
    ("phase.campaign_s", "s"),
    ("phase.sim_s", "s"),
    ("phase.reference_s", "s"),
    ("phase.replay_s", "s"),
    ("phase.gain", "ratio"),
    ("phase.max_err_pct", "%"),
    ("phase.publish_s", "s"),
    ("phase.fetch_s", "s"),
    ("phase.served_s", "s"),
    ("bench.traced_s", "s"),
    ("bench.tracing_overhead_s", "s"),
    ("share.platform", "%"),
    ("share.workloads", "%"),
    ("share.cpu", "%"),
    ("share.trace", "%"),
    ("share.core", "%"),
    ("share.noc.xpipes", "%"),
    ("share.explore", "%"),
    ("share.serve", "%"),
    ("share.report", "%"),
    ("share.bench", "%"),
    ("bench.setup_s", "s"),
    ("bench.peak_rss_mb", "MB"),
    ("check.attempted", "count"),
    ("check.failed", "count"),
    ("check.digest_recorded", "bool"),
    ("bench.iterations", "count"),
    ("bench.host_cpus", "count"),
];

/// Output checks: failures count against the jobs and HTTP requests
/// attempted.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// One campaign job: it must complete without error, and a golden
    /// model check, when there is one, must pass.
    pub fn job(&mut self, r: &JobResult) {
        self.attempted += 1;
        if !r.completed || r.error.is_some() {
            self.fail(format!("job {} did not complete: {:?}", r.key, r.error));
        } else if r.verified == Some(false) {
            self.fail(format!("job {} failed verification", r.key));
        }
    }

    /// The client's HTTP requests: every non-2xx answer is a failure.
    pub fn http(&mut self, client: &Client) {
        self.attempted += client.requests();
        self.failed += client.failed;
        if client.failed > 0 {
            eprintln!(
                "perfbench: check failed: {} non-2xx HTTP responses",
                client.failed
            );
        }
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        eprintln!("perfbench: check failed: {msg}");
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Print the canonical digest of one iteration and exit.
    digest_only: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut kind = None;
        let mut seed = 1;
        let mut seconds = 20.0;
        let mut trace = false;
        let mut digest_only = false;
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--workload" => kind = Some(Kind::parse(&value()?)?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                    }
                }
                "--digest-only" => digest_only = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Self {
            kind: kind.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            digest_only,
        })
    }
}

/// FNV-64 over the canonical result lines with each job's derived seed
/// removed: every simulated statistic, independent of which seed
/// labelled the job. The header (which carries the campaign
/// fingerprint) is skipped for the same reason.
fn digest(canonical: &str) -> String {
    let mut text = String::new();
    for line in canonical.lines().skip(1) {
        match line.find("\"seed\":\"") {
            Some(start) => {
                let rest = &line[start + 8..];
                let end = rest.find('"').map_or(rest.len(), |e| e + 1);
                text.push_str(&line[..start]);
                text.push_str(rest[end..].strip_prefix(',').unwrap_or(&rest[end..]));
            }
            None => text.push_str(line),
        }
        text.push('\n');
    }
    format!("{:016x}", ntg_trace::fnv64(text.as_bytes()))
}

/// The digest recorded for this workload and seed (a `*` line covers
/// every seed of a workload whose statistics do not depend on it).
fn recorded(kind: Kind, seed: u64) -> Option<&'static str> {
    let mut any = None;
    for line in RECORDED.lines().filter(|l| !l.starts_with('#')) {
        let mut f = line.split_whitespace();
        let (Some(w), Some(s), Some(d)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if w != kind.name() {
            continue;
        }
        if s == seed.to_string() {
            return Some(d);
        }
        if s == "*" {
            any = Some(d);
        }
    }
    any
}

/// Checks an iteration's digest against the recorded one, or — for a
/// seed nothing was recorded for — against the run's first iteration.
struct DigestCheck {
    expected: Option<String>,
    recorded: bool,
}

impl DigestCheck {
    fn new(kind: Kind, seed: u64) -> Self {
        let expected = recorded(kind, seed).map(str::to_string);
        if expected.is_none() {
            eprintln!(
                "perfbench: no digest recorded for {} seed {seed}; checking that iterations agree",
                kind.name()
            );
        }
        Self {
            recorded: expected.is_some(),
            expected,
        }
    }

    fn check(&mut self, canonical: &str, checks: &mut Checks) {
        let got = digest(canonical);
        match &self.expected {
            Some(want) => checks.check(*want == got, || {
                format!("canonical digest {got} differs from expected {want}")
            }),
            None => self.expected = Some(got),
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent); // only if no other run uses it
        }
    }
}

fn print_result(checks: &Checks, metrics: &[(&str, &str)], values: &BTreeMap<&str, f64>) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    let kind = args.kind;
    let root = Path::new(".perfbench_work");
    let work = WorkDir(root.join(format!("{}-{}", kind.name(), std::process::id())));
    let dir = |tag: String| work.0.join(tag);

    let mut setups = Vec::new();
    let set_up = |setups: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUPS_PER_ROUND {
            setups.push(workloads::setup(kind, args.seed)?);
        }
        Ok(())
    };
    set_up(&mut setups)?;

    let mut checks = Checks::default();
    let mut digests = DigestCheck::new(kind, args.seed);
    if args.digest_only {
        let it = workloads::iterate(kind, args.seed, &dir("digest".into()), &mut checks)?;
        if checks.failed > 0 {
            return Err("the iteration failed its checks; no digest to record".into());
        }
        println!("{} {} {}", kind.name(), args.seed, digest(&it.canonical));
        return Ok(());
    }

    let started = Instant::now();
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    if args.trace {
        let untraced = workloads::iterate(kind, args.seed, &dir("untraced".into()), &mut checks)?;
        digests.check(&untraced.canonical, &mut checks);
        let mut passes: Vec<BTreeMap<&'static str, f64>> = Vec::new();
        let tracer = loop {
            let n = passes.len();
            let traced_dir = dir(format!("traced{n}"));
            let (pass, tracer) = traced::run(kind, args.seed, &traced_dir, &untraced, &mut checks)?;
            passes.push(pass);
            set_up(&mut setups)?;
            if started.elapsed().as_secs_f64() >= args.seconds {
                break tracer;
            }
        };
        let spans = root.join(format!("{}.spans.jsonl", kind.name()));
        fs::write(&spans, tracer.to_jsonl())
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
        for (name, _) in PER_LAYER {
            let v: Vec<f64> = passes.iter().filter_map(|p| p.get(name).copied()).collect();
            if !v.is_empty() {
                values.insert(name, median(&v));
            }
        }
        values.extend(traced::parallel(kind, args.seed, &mut checks)?);
        values.insert("bench.iterations", passes.len() as f64);
        values.insert("bench.host_cpus", workloads::host_cpus() as f64);
        values.insert(
            "check.digest_recorded",
            if digests.recorded { 1.0 } else { 0.0 },
        );
        println!("{} traced passes: {}", kind.name(), passes.len());
        for (layer, share) in traced::LAYERS {
            let share = values.get(share).copied().unwrap_or(0.0);
            println!("  self-time share {layer:<12} {share:6.2} %");
        }
    } else {
        let mut its = Vec::new();
        loop {
            let n = its.len();
            let it = workloads::iterate(kind, args.seed, &dir(format!("it{n}")), &mut checks)?;
            digests.check(&it.canonical, &mut checks);
            its.push(it);
            set_up(&mut setups)?;
            if started.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        let med = |f: fn(&workloads::Iteration) -> f64| {
            let v: Vec<f64> = its.iter().map(f).collect();
            (median(&v), quantile(&v, 0.0), quantile(&v, 1.0))
        };
        let campaign = med(|i| i.campaign_s);
        values.insert("campaign_s", campaign.0);
        println!(
            "{} seed {}: {} iterations; campaign_s median {:.4} s (min {:.4}, max {:.4})",
            kind.name(),
            args.seed,
            its.len(),
            campaign.0,
            campaign.1,
            campaign.2
        );
        type Field = fn(&workloads::Iteration) -> f64;
        let lines: &[(&str, Field, &str)] = match kind {
            Kind::Table2Flow => &[
                ("sim_s", |i| i.sim_s, "s"),
                ("reference_s", |i| i.reference_s, "s"),
                ("replay_s", |i| i.replay_s, "s"),
                (
                    "gain reference_s/replay_s (not gated)",
                    |i| i.reference_s / i.replay_s,
                    "x",
                ),
                ("max_err_pct", |i| i.max_err_pct, "%"),
            ],
            Kind::MeshUniform => &[("sim_s", |i| i.sim_s, "s")],
            Kind::ServedSweep => &[
                ("sim_s", |i| i.sim_s, "s"),
                ("publish_s", |i| i.publish_s, "s"),
                ("fetch_s", |i| i.fetch_s, "s"),
                ("served_s", |i| i.served_s, "s"),
            ],
        };
        for (name, f, unit) in lines {
            let (m, lo, hi) = med(*f);
            println!("  {name}: median {m:.4} {unit} (min {lo:.4}, max {hi:.4})");
        }
    }
    let peak_rss_mb = peak_rss_mb()?;
    let setup_s = median(&setups);
    values.insert("setup_s", setup_s);
    values.insert("bench.setup_s", setup_s);
    values.insert("peak_rss_mb", peak_rss_mb);
    values.insert("bench.peak_rss_mb", peak_rss_mb);
    values.insert("check.attempted", checks.attempted as f64);
    values.insert("check.failed", checks.failed as f64);
    let metrics: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    print_result(&checks, metrics, &values);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
