//! The three workloads: their campaign specs, set-up and one untraced
//! closed-loop iteration each (tracing off — these give the end-to-end
//! metrics).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ntg_explore::{
    run_campaign, CacheSnapshot, CampaignOutcome, CampaignSpec, CoreSelection, JobResult, Json,
    MasterChoice, RemoteSnapshot, RemoteTier, RunOptions,
};
use ntg_platform::InterconnectChoice;
use ntg_serve::HttpRemote;
use ntg_workloads::synthetic::{Pattern, ShapeKind};
use ntg_workloads::Workload;

use crate::daemon::{serve_campaign, Client, Daemon};
use crate::Checks;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Table2Flow,
    MeshUniform,
    ServedSweep,
}

impl Kind {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "table2_flow" => Ok(Kind::Table2Flow),
            "mesh_uniform" => Ok(Kind::MeshUniform),
            "served_sweep" => Ok(Kind::ServedSweep),
            _ => Err(format!(
                "unknown workload `{name}` (expected table2_flow, mesh_uniform or served_sweep)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Table2Flow => "table2_flow",
            Kind::MeshUniform => "mesh_uniform",
            Kind::ServedSweep => "served_sweep",
        }
    }
}

/// Packets each synthetic master injects on `mesh_uniform`.
pub const MESH_PACKETS: u32 = 256;

/// The paper's four Table-2 workloads at their Table-2 sizes.
fn table2_workloads() -> Vec<Workload> {
    vec![
        Workload::SpMatrix { n: 16 },
        Workload::Cacheloop { iterations: 60_000 },
        Workload::MpMatrix { n: 24 },
        Workload::Des {
            blocks_per_core: 24,
        },
    ]
}

/// The workload's campaign, seeded from the benchmark's `--seed`.
pub fn spec(kind: Kind, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new(kind.name());
    spec.base_seed = seed;
    match kind {
        // The `table2` preset with one timing repeat: every workload
        // over its paper core sweep, reference CPUs vs reactive TGs on
        // the AMBA bus.
        Kind::Table2Flow => {
            spec.workloads = table2_workloads();
            spec.cores = CoreSelection::Paper;
        }
        // Fabric-bound synthetic traffic on 8x8 and 16x16 meshes,
        // below and above saturation.
        Kind::MeshUniform => {
            spec.workloads = vec![Workload::Synthetic {
                packets: MESH_PACKETS,
            }];
            spec.cores = CoreSelection::List(vec![24, 96]);
            spec.interconnects = Vec::new();
            spec.mesh_sizes = vec![(8, 8), (16, 16)];
            spec.masters = vec![MasterChoice::Synthetic];
            spec.patterns = vec![Pattern::Uniform, Pattern::Transpose];
            spec.shapes = vec![ShapeKind::Bernoulli];
            spec.rates = vec![0.02, 0.1];
        }
        // TG-only replays of one 4-core point per Table-2 workload
        // across four fabrics (`amba-fixed` left out: its TG replay
        // livelocks under the default cycle bound).
        Kind::ServedSweep => {
            spec.workloads = table2_workloads();
            spec.cores = CoreSelection::List(vec![4]);
            spec.interconnects = vec![
                InterconnectChoice::Amba,
                InterconnectChoice::Crossbar,
                InterconnectChoice::Xpipes,
                InterconnectChoice::Ideal,
            ];
            spec.masters = vec![MasterChoice::Tg];
        }
    }
    spec
}

/// Campaign workers the served daemon runs with: one per host CPU.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Set-up before anything is timed: the spec goes through the wire
/// format the daemon accepts and must come back identical, with the
/// same fingerprint, and expands into jobs whose keys and seeds are
/// derived. Returns the elapsed seconds.
pub fn setup(kind: Kind, seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    let spec = spec(kind, seed);
    let wire = Json::parse(&spec.to_json().render())?;
    let parsed = CampaignSpec::from_json(&wire)?;
    if parsed != spec || parsed.fingerprint() != spec.fingerprint() {
        return Err("campaign spec does not round-trip through its wire format".into());
    }
    let jobs = parsed.expand();
    if jobs.is_empty() {
        return Err(format!("{}: the campaign expands to no jobs", kind.name()));
    }
    Ok(t.elapsed().as_secs_f64())
}

/// One untraced iteration's measurements.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Spec → canonical JSONL on disk (all phases on `served_sweep`).
    pub campaign_s: f64,
    /// Σ `JobResult::wall_secs` over the jobs run locally.
    pub sim_s: f64,
    /// Σ wall over CPU jobs (`table2_flow`).
    pub reference_s: f64,
    /// Σ wall over TG jobs (`table2_flow`).
    pub replay_s: f64,
    /// Largest TG-vs-CPU cycle error in percent (`table2_flow`).
    pub max_err_pct: f64,
    /// `served_sweep` phases.
    pub publish_s: f64,
    pub fetch_s: f64,
    pub served_s: f64,
    /// Canonical JSONL the iteration produced (the local one on
    /// `served_sweep`).
    pub canonical: String,
    /// In-memory results of the local campaign(s), publish phase first.
    pub results: Vec<JobResult>,
    /// Cache counters summed over the local campaigns.
    pub cache: CacheSnapshot,
    pub remote: RemoteSnapshot,
}

/// Runs `spec` locally to a canonical JSONL at `out`; returns the
/// outcome, the wall seconds until the file was on disk, and the file.
fn local_campaign(
    spec: &CampaignSpec,
    out: &Path,
    store: Option<PathBuf>,
    remote: Option<Arc<dyn RemoteTier>>,
) -> Result<(CampaignOutcome, f64, String), String> {
    let opts = RunOptions {
        threads: 1,
        out: Some(out.to_path_buf()),
        quiet: true,
        store,
        remote,
        ..RunOptions::default()
    };
    let t = Instant::now();
    let outcome = run_campaign(spec, &opts)?;
    let secs = t.elapsed().as_secs_f64();
    let text = fs::read_to_string(out).map_err(|e| format!("read {}: {e}", out.display()))?;
    Ok((outcome, secs, text))
}

fn add_cache(total: &mut CacheSnapshot, c: &CacheSnapshot) {
    total.trace_hits += c.trace_hits;
    total.trace_misses += c.trace_misses;
    total.trace_disk_hits += c.trace_disk_hits;
    total.image_hits += c.image_hits;
    total.image_misses += c.image_misses;
    total.image_disk_hits += c.image_disk_hits;
}

fn add_remote(total: &mut RemoteSnapshot, r: Option<RemoteSnapshot>) {
    if let Some(r) = r {
        total.hits += r.hits;
        total.misses += r.misses;
        total.publishes += r.publishes;
        total.errors += r.errors;
    }
}

/// Runs one untraced iteration of the workload in `dir` (created fresh
/// and removed afterwards), recording check failures in `checks`.
pub fn iterate(
    kind: Kind,
    seed: u64,
    dir: &Path,
    checks: &mut Checks,
) -> Result<Iteration, String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let spec = spec(kind, seed);
    let mut it = Iteration::default();
    match kind {
        Kind::Table2Flow | Kind::MeshUniform => {
            let (outcome, secs, text) = local_campaign(&spec, &dir.join("out.jsonl"), None, None)?;
            it.campaign_s = secs;
            it.canonical = text;
            add_cache(&mut it.cache, &outcome.cache);
            it.results = outcome.results;
        }
        Kind::ServedSweep => served_iteration(&spec, dir, checks, &mut it)?,
    }
    for r in &it.results {
        checks.job(r);
        it.sim_s += r.wall_secs;
        match r.master.as_str() {
            "cpu" => it.reference_s += r.wall_secs,
            "tg" => it.replay_s += r.wall_secs,
            _ => {}
        }
        it.max_err_pct = it.max_err_pct.max(r.error_pct.unwrap_or(0.0));
    }
    fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(it)
}

/// `served_sweep`: publish (cold local campaign whose store tiers over
/// the daemon), fetch (same campaign from an empty local store — must
/// rebuild nothing), served (the daemon runs it; results and the
/// `table2` view come back over HTTP).
fn served_iteration(
    spec: &CampaignSpec,
    dir: &Path,
    checks: &mut Checks,
    it: &mut Iteration,
) -> Result<(), String> {
    let daemon = Daemon::start(&dir.join("daemon"), host_cpus())?;
    let remote = || Some(Arc::new(HttpRemote::new(&daemon.addr)) as Arc<dyn RemoteTier>);

    let (publish, publish_s, local) = local_campaign(
        spec,
        &dir.join("publish.jsonl"),
        Some(dir.join("store-publish")),
        remote(),
    )?;
    let published = publish.cache.remote.unwrap_or_default();
    let built = publish.cache.trace_misses + publish.cache.image_misses;
    checks.check(
        published.publishes == built && published.errors == 0,
        || format!("publish: {built} artifacts built but {published:?} reached the daemon"),
    );

    let (fetch, fetch_s, fetched) = local_campaign(
        spec,
        &dir.join("fetch.jsonl"),
        Some(dir.join("store-fetch")),
        remote(),
    )?;
    let rebuilt = fetch.cache.trace_misses + fetch.cache.image_misses;
    let fetched_remote = fetch.cache.remote.unwrap_or_default();
    checks.check(
        rebuilt == 0 && fetched_remote.hits == built && fetched_remote.errors == 0,
        || format!("fetch rebuilt {rebuilt} artifacts ({fetched_remote:?}, {built} published)"),
    );
    checks.check(fetched == local, || {
        "fetch canonical JSONL differs from publish".into()
    });

    let mut client = Client::default();
    let t = Instant::now();
    let served = serve_campaign(&mut client, &daemon.addr, spec);
    let served_s = t.elapsed().as_secs_f64();
    checks.http(&client);
    match served {
        Ok(s) => {
            crate::traced::served_jobs(&s.canonical, checks);
            checks.check(s.canonical == local.as_bytes(), || {
                "served canonical JSONL differs from the local one".into()
            });
            checks.check(!s.table2.is_empty(), || {
                "served table2 view is empty".into()
            });
        }
        Err(e) => checks.fail(format!("served: {e}")),
    }
    daemon.stop()?;

    it.publish_s = publish_s;
    it.fetch_s = fetch_s;
    it.served_s = served_s;
    it.campaign_s = publish_s + fetch_s + served_s;
    it.canonical = local;
    for c in [&publish.cache, &fetch.cache] {
        add_cache(&mut it.cache, c);
        add_remote(&mut it.remote, c.remote);
    }
    it.results = publish.results;
    it.results.extend(fetch.results);
    Ok(())
}
