//! The traced run: the campaign pipeline re-driven from the benchmark's
//! own code through the layers' public calls, with a span around each
//! call, so per-layer self time and counts can be measured where the
//! work happens. Every job's cycles and transactions must equal the
//! untraced campaign's canonical line for the same job.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ntg_core::{assemble, TgImage, TraceTranslator, TranslatorConfig};
use ntg_explore::store::{
    decode_images, decode_trace_artifact, encode_images, encode_trace_artifact, image_store_key,
    trace_store_key,
};
use ntg_explore::{
    entry_file_name, merge_shards, shard_path, verify_entry, CampaignSpec, DiskStore, JobResult,
    JobSpec, MasterChoice, StoreKind, TraceArtifact,
};
use ntg_platform::{InterconnectChoice, Platform, RunReport};
use ntg_workloads::synthetic::build_synthetic_platform;
use ntg_workloads::Workload;

use crate::daemon::{serve_campaign, Client, Daemon};
use crate::spans::Tracer;
use crate::workloads::{host_cpus, spec, Iteration, Kind};
use crate::Checks;

/// Per-fabric contention counters summed over job runs.
#[derive(Debug, Default)]
struct Fabric {
    conflicts: u64,
    grant_wait_sum: u64,
    grant_wait_count: u64,
    busy_cycles: u64,
    cycles: u64,
}

impl Fabric {
    fn add(&mut self, r: &RunReport) {
        if let Some(m) = &r.metrics {
            self.conflicts += m.conflicts;
            self.grant_wait_sum += m.grant_wait_sum;
            self.grant_wait_count += m.grant_wait_count;
            self.busy_cycles += m.fabric_utilization_cycles;
        }
        self.cycles += r.cycles;
    }

    fn grant_wait_mean(&self) -> f64 {
        ratio(self.grant_wait_sum as f64, self.grant_wait_count as f64)
    }
}

/// Counts taken from public return values during the traced pipeline.
#[derive(Debug, Default)]
struct Counts {
    cpu_ticked: u64,
    cpu_visited: u64,
    cpu_total: u64,
    tg_ticked: u64,
    tg_skipped: u64,
    sim_ticked: u64,
    sim_skipped: u64,
    sim_visited: u64,
    sim_total: u64,
    trace_events: u64,
    trace_bytes: u64,
    tg_instructions: u64,
    store_bytes: u64,
    synthetic_cycles: u64,
    accepted_rates: Vec<f64>,
    amba: Fabric,
    xpipes: Fabric,
    /// Traced reference run seconds per (workload, cores).
    trace_run: HashMap<(Workload, usize), f64>,
    /// Untraced CPU job seconds per (workload, cores) on the trace fabric.
    cpu_run: HashMap<(Workload, usize), f64>,
    /// Served job: submit → first shard started, then → merged.
    job_queue_s: f64,
    job_run_s: f64,
}

/// Where TG artifacts come from in a pipeline pass.
enum Source<'a> {
    /// Build locally, keep in memory.
    Build,
    /// Build locally, save to the local store and PUT to the daemon.
    Publish(&'a DiskStore, &'a str),
    /// GET from the daemon into an empty local store; never build.
    Fetch(&'a DiskStore, &'a str),
}

/// One traced pipeline pass's state.
struct Pipeline<'a> {
    t: &'a mut Tracer,
    client: &'a mut Client,
    counts: &'a mut Counts,
    checks: &'a mut Checks,
    spec: &'a CampaignSpec,
    traces: HashMap<(Workload, usize), Arc<TraceArtifact>>,
    images: HashMap<(Workload, usize, u64), Arc<Vec<TgImage>>>,
}

/// What a traced job produced, in the canonical line's terms.
#[derive(Debug, PartialEq)]
struct JobOutcome {
    completed: bool,
    cycles: Option<u64>,
    sim_cycles: u64,
    transactions: u64,
    verified: Option<bool>,
}

impl JobOutcome {
    fn of(r: &JobResult) -> Self {
        Self {
            completed: r.completed,
            cycles: r.cycles,
            sim_cycles: r.sim_cycles,
            transactions: r.transactions,
            verified: r.verified,
        }
    }
}

fn is_xpipes(ic: InterconnectChoice) -> bool {
    matches!(
        ic,
        InterconnectChoice::Xpipes | InterconnectChoice::Mesh(..)
    )
}

impl Pipeline<'_> {
    fn trace_artifact(
        &mut self,
        job: &JobSpec,
        source: &Source,
    ) -> Result<Arc<TraceArtifact>, String> {
        let key = (job.workload, job.cores);
        if let Some(a) = self.traces.get(&key) {
            return Ok(a.clone());
        }
        let id = Some(job.id);
        let store_key = trace_store_key(&(job.workload, job.cores, self.spec.trace_interconnect));
        let artifact = match source {
            Source::Fetch(store, addr) => {
                let payload = self.fetch(StoreKind::Trace, &store_key, store, addr, id)?;
                let t = &mut *self.t;
                t.leaf("trace", "trace.codec.decode", id, || {
                    decode_trace_artifact(&payload)
                })
                .map_err(|e| format!("decode {store_key}: {e}"))?
            }
            Source::Build | Source::Publish(..) => {
                let a = self.build_trace(job)?;
                if let Source::Publish(store, addr) = source {
                    let payload = self.t.leaf("trace", "trace.codec.encode", id, || {
                        encode_trace_artifact(&a)
                    });
                    self.counts.trace_bytes += payload.len() as u64;
                    self.publish(StoreKind::Trace, &store_key, &payload, store, addr, id)?;
                }
                a
            }
        };
        let artifact = Arc::new(artifact);
        self.traces.insert(key, artifact.clone());
        Ok(artifact)
    }

    /// The traced reference run, exactly as the campaign runner does it.
    fn build_trace(&mut self, job: &JobSpec) -> Result<TraceArtifact, String> {
        let id = Some(job.id);
        let ic = self.spec.trace_interconnect;
        let mut p = self
            .t
            .leaf("platform", "platform.build", id, || {
                job.workload.build_platform(job.cores, ic, true)
            })
            .map_err(|e| format!("trace build: {e}"))?;
        let started = Instant::now();
        let report = self
            .t
            .leaf("trace", "trace.run", id, || p.run(job.max_cycles));
        *self
            .counts
            .trace_run
            .entry((job.workload, job.cores))
            .or_default() += started.elapsed().as_secs_f64();
        if !report.completed || !report.faults.is_empty() {
            return Err(format!("{}: trace run did not complete", job.key()));
        }
        let ref_cycles = report.execution_time().ok_or("trace run never halted")?;
        let counts = &mut *self.counts;
        self.t.leaf("trace", "trace.collect", id, || {
            let traces = p.traces();
            counts.trace_events += traces.iter().map(|t| t.events.len() as u64).sum::<u64>();
            let pollable = p.map().pollable_ranges();
            let ranges: Vec<(u32, u32)> = p.map().iter().map(|r| (r.base, r.size)).collect();
            let calibration = TraceArtifact::calibrate(&traces, p.clock().period_ns(), &ranges)?;
            Ok(TraceArtifact {
                traces,
                pollable,
                calibration,
                ref_cycles,
            })
        })
    }

    fn images(
        &mut self,
        job: &JobSpec,
        artifact: &TraceArtifact,
        source: &Source,
    ) -> Result<Arc<Vec<TgImage>>, String> {
        let cfg = TranslatorConfig {
            pollable: artifact.pollable.clone(),
            mode: job.mode.ok_or("TG job without a translation mode")?,
            loop_forever: false,
            poll_idle: 0,
        };
        let key = (job.workload, job.cores, cfg.cache_key());
        if let Some(i) = self.images.get(&key) {
            return Ok(i.clone());
        }
        let id = Some(job.id);
        let store_key = image_store_key(&(
            job.workload,
            job.cores,
            self.spec.trace_interconnect,
            cfg.cache_key(),
        ));
        let images = match source {
            Source::Fetch(store, addr) => {
                let payload = self.fetch(StoreKind::Image, &store_key, store, addr, id)?;
                self.t
                    .leaf("core", "core.images.decode", id, || decode_images(&payload))
                    .map_err(|e| format!("decode {store_key}: {e}"))?
            }
            Source::Build | Source::Publish(..) => {
                let translator = TraceTranslator::new(cfg);
                let mut images = Vec::with_capacity(artifact.traces.len());
                for trace in &artifact.traces {
                    let program = self
                        .t
                        .leaf("core", "core.translate", id, || translator.translate(trace))
                        .map_err(|e| format!("translate: {e:?}"))?;
                    self.counts.tg_instructions += program.len_instrs() as u64;
                    let image = self
                        .t
                        .leaf("core", "core.assemble", id, || assemble(&program))
                        .map_err(|e| format!("assemble: {e:?}"))?;
                    images.push(image);
                }
                if let Source::Publish(store, addr) = source {
                    let payload = self
                        .t
                        .leaf("core", "core.images.encode", id, || encode_images(&images));
                    self.publish(StoreKind::Image, &store_key, &payload, store, addr, id)?;
                }
                images
            }
        };
        let images = Arc::new(images);
        self.images.insert(key, images.clone());
        Ok(images)
    }

    /// Local save, then PUT of the framed entry to the daemon.
    fn publish(
        &mut self,
        kind: StoreKind,
        key: &str,
        payload: &[u8],
        store: &DiskStore,
        addr: &str,
        id: Option<usize>,
    ) -> Result<(), String> {
        self.t.leaf("explore", "explore.store.save", id, || {
            store.save(kind, key, payload)
        })?;
        let name = entry_file_name(kind, key);
        let path = store.root().join(kind.dir()).join(&name);
        let framed = self
            .t
            .leaf("explore", "explore.store.read", id, || fs::read(&path))
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        self.counts.store_bytes += framed.len() as u64;
        let client = &mut *self.client;
        let ex = self.t.leaf("serve", "serve.blob.put", id, || {
            client.put(addr, &format!("/store/{}/{name}", kind.dir()), &framed)
        });
        self.checks
            .check(ex.ok(), || format!("PUT {name}: HTTP {}", ex.status));
        Ok(())
    }

    /// GET of a framed entry from the daemon into the local store, then
    /// the local load that decoding reads from. A local hit before the
    /// GET would mean the fetch phase did not start cold.
    fn fetch(
        &mut self,
        kind: StoreKind,
        key: &str,
        store: &DiskStore,
        addr: &str,
        id: Option<usize>,
    ) -> Result<Vec<u8>, String> {
        let cold = self
            .t
            .leaf("explore", "explore.store.load", id, || {
                store.load(kind, key)
            })
            .is_none();
        self.checks.check(cold, || {
            format!("fetch: {key} was already in the local store")
        });
        let name = entry_file_name(kind, key);
        let client = &mut *self.client;
        let ex = self.t.leaf("serve", "serve.blob.get", id, || {
            client.get(addr, &format!("/store/{}/{name}", kind.dir()))
        });
        if !ex.ok() {
            return Err(format!("GET {name}: HTTP {}", ex.status));
        }
        let (got_key, payload) = self.t.leaf("explore", "explore.store.verify", id, || {
            verify_entry(&ex.body)
        })?;
        if got_key != key {
            return Err(format!("GET {name}: entry holds key `{got_key}`"));
        }
        self.counts.store_bytes += ex.body.len() as u64;
        self.t.leaf("explore", "explore.store.save", id, || {
            store.save(kind, key, &payload)
        })?;
        self.t
            .leaf("explore", "explore.store.load", id, || {
                store.load(kind, key)
            })
            .ok_or_else(|| format!("{key}: saved entry does not load back"))
    }

    /// Runs one job the way the campaign runner does: build, enable
    /// metrics, run, verify the first completed run.
    fn job(&mut self, job: &JobSpec, source: &Source) -> Result<JobOutcome, String> {
        let id = Some(job.id);
        let root = self.t.begin("bench", "job", id);
        let (built, run_layer, run_name) = match job.master {
            MasterChoice::Cpu => (
                self.t.leaf("platform", "platform.build", id, || {
                    job.workload
                        .build_platform(job.cores, job.interconnect, false)
                }),
                "cpu",
                "cpu.run",
            ),
            MasterChoice::Tg => {
                let artifact = self.trace_artifact(job, source)?;
                let images = self.images(job, &artifact, source)?;
                (
                    self.t.leaf("platform", "platform.build", id, || {
                        job.workload.build_tg_platform(
                            images.as_ref().clone(),
                            job.interconnect,
                            false,
                        )
                    }),
                    "core",
                    "core.replay",
                )
            }
            MasterChoice::Synthetic => {
                let synth = job.synth.ok_or("synthetic job without a descriptor")?;
                let Workload::Synthetic { packets } = job.workload else {
                    return Err("synthetic master without the synthetic workload".into());
                };
                let built = self.t.leaf("platform", "platform.build", id, || {
                    build_synthetic_platform(
                        job.cores,
                        job.interconnect,
                        synth,
                        u64::from(packets.max(1)),
                        job.seed,
                    )
                });
                // A synthetic master is a trivial generator: its run is
                // the fabric's time.
                if !is_xpipes(job.interconnect) {
                    return Err("synthetic jobs here run on xpipes meshes only".into());
                }
                (built, "noc.xpipes", "noc.xpipes.run")
            }
            MasterChoice::Stochastic => {
                return Err("stochastic jobs are not part of any workload".into())
            }
        };
        let mut p: Platform = built.map_err(|e| format!("{}: build: {e}", job.key()))?;
        p.enable_metrics();
        let started = Instant::now();
        let report = self
            .t
            .leaf(run_layer, run_name, id, || p.run(job.max_cycles));
        let secs = started.elapsed().as_secs_f64();
        // The runner checks the golden model after every completed run
        // but records the verdict only for programs that have one.
        let verified = (report.completed && report.faults.is_empty())
            .then(|| {
                self.t.leaf("workloads", "workloads.verify", id, || {
                    job.workload.verify(&p, job.cores).is_ok()
                })
            })
            .filter(|_| matches!(job.master, MasterChoice::Cpu | MasterChoice::Tg));
        self.t.end(root);

        let c = &mut *self.counts;
        c.sim_ticked += report.ticked_cycles;
        c.sim_skipped += report.skipped_cycles;
        c.sim_visited += report.visited_component_cycles;
        c.sim_total += report.total_component_cycles;
        match job.master {
            MasterChoice::Cpu => {
                c.cpu_ticked += report.ticked_cycles;
                c.cpu_visited += report.visited_component_cycles;
                c.cpu_total += report.total_component_cycles;
                if job.interconnect == self.spec.trace_interconnect {
                    *c.cpu_run.entry((job.workload, job.cores)).or_default() += secs;
                }
            }
            MasterChoice::Tg => {
                c.tg_ticked += report.ticked_cycles;
                c.tg_skipped += report.skipped_cycles;
            }
            _ => {
                c.synthetic_cycles += report.cycles;
                if let Some((_, accepted)) = report.synthetic_rates() {
                    c.accepted_rates.push(accepted);
                }
            }
        }
        match job.interconnect {
            InterconnectChoice::Amba => c.amba.add(&report),
            ic if is_xpipes(ic) => c.xpipes.add(&report),
            _ => {}
        }
        Ok(JobOutcome {
            completed: report.completed,
            cycles: if report.completed {
                report.execution_time()
            } else {
                None
            },
            sim_cycles: report.cycles,
            transactions: report.transactions,
            verified,
        })
    }

    /// Every job of the spec, compared with the untraced canonical lines.
    fn pass(
        &mut self,
        phase: &'static str,
        source: &Source,
        untraced: &[JobResult],
    ) -> Result<(), String> {
        let root = self.t.begin("bench", phase, None);
        for job in self.spec.expand() {
            let got = self.job(&job, source)?;
            self.checks.attempted += 1;
            let want = untraced.iter().find(|r| r.id == job.id).map(JobOutcome::of);
            self.checks.check(want.as_ref() == Some(&got), || {
                format!(
                    "{phase}: traced {} gave {got:?}, untraced {want:?}",
                    job.key()
                )
            });
        }
        self.t.end(root);
        Ok(())
    }
}

/// One traced pass over the workload. Returns its per-layer metrics.
pub fn run(
    kind: Kind,
    seed: u64,
    dir: &Path,
    untraced: &Iteration,
    checks: &mut Checks,
) -> Result<(BTreeMap<&'static str, f64>, Tracer), String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let spec = spec(kind, seed);
    let mut tracer = Tracer::new();
    let mut client = Client::default();
    let mut counts = Counts::default();
    let canonical = ntg_explore::parse_results(&untraced.canonical, false)?.results;
    {
        let mut p = Pipeline {
            t: &mut tracer,
            client: &mut client,
            counts: &mut counts,
            checks,
            spec: &spec,
            traces: HashMap::new(),
            images: HashMap::new(),
        };
        match kind {
            Kind::Table2Flow | Kind::MeshUniform => {
                p.pass("campaign", &Source::Build, &canonical)?;
            }
            Kind::ServedSweep => {
                let daemon = Daemon::start(&dir.join("daemon"), host_cpus())?;
                let publish_store = DiskStore::open(dir.join("store-publish"))?;
                let fetch_store = DiskStore::open(dir.join("store-fetch"))?;
                p.pass(
                    "publish",
                    &Source::Publish(&publish_store, &daemon.addr),
                    &canonical,
                )?;
                p.traces.clear();
                p.images.clear();
                p.pass(
                    "fetch",
                    &Source::Fetch(&fetch_store, &daemon.addr),
                    &canonical,
                )?;
                served_phase(&mut p, &daemon, &untraced.canonical, dir)?;
                daemon.stop()?;
            }
        }
    }
    checks.http(&client);
    fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok((layer_metrics(&tracer, &client, &counts, untraced), tracer))
}

/// POST → poll → GET through the daemon, then the two steps whose cost
/// the daemon hides from a client, redone on the served files: merging
/// the shard files and rendering the `table2` view. Both must give the
/// served bytes back, and the served results must equal the local ones.
fn served_phase(p: &mut Pipeline, daemon: &Daemon, local: &str, dir: &Path) -> Result<(), String> {
    let root = p.t.begin("bench", "served", None);
    let client = &mut *p.client;
    let spec = p.spec;
    let served = p.t.leaf("serve", "serve.campaign", None, || {
        serve_campaign(client, &daemon.addr, spec)
    })?;
    served_jobs(&served.canonical, p.checks);
    let out = daemon.job_dir(&served.id).join("out.jsonl");
    let shards = daemon.workers.clamp(1, spec.expand().len().max(1));
    let files: Vec<_> = (1..=shards)
        .map(|i| shard_path(&out, (i, shards)))
        .collect();
    let merged_path = dir.join("merged.jsonl");
    p.t.leaf("explore", "explore.merge", None, || {
        merge_shards(&files, &merged_path)
    })?;
    let merged = fs::read(&merged_path).map_err(|e| format!("read merged: {e}"))?;
    let canonical = String::from_utf8_lossy(&served.canonical).into_owned();
    let timings = String::from_utf8_lossy(&served.timings).into_owned();
    let metrics = String::from_utf8_lossy(&served.metrics).into_owned();
    let view = p.t.leaf("report", "report.render", None, || {
        ntg_report::render_view("table2", &canonical, Some(&timings), Some(&metrics))
    })?;
    p.t.end(root);
    p.counts.job_queue_s = served.queue_s;
    p.counts.job_run_s = served.run_s;
    p.checks.check(served.canonical == local.as_bytes(), || {
        "served canonical JSONL differs from the local one".into()
    });
    p.checks.check(merged == served.canonical, || {
        "merge_shards of the daemon's shards differs from the served JSONL".into()
    });
    p.checks.check(view.as_bytes() == served.table2, || {
        "local table2 rendering differs from the served view".into()
    });
    Ok(())
}

/// Counts the served canonical lines as attempted jobs and checks each
/// completed and verified.
pub fn served_jobs(canonical: &[u8], checks: &mut Checks) {
    match ntg_explore::parse_results(&String::from_utf8_lossy(canonical), false) {
        Ok(loaded) => loaded.results.iter().for_each(|r| checks.job(r)),
        Err(e) => checks.fail(format!("served canonical JSONL does not parse: {e}")),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The layers self time is charged to, with their share metric.
pub const LAYERS: [(&str, &str); 10] = [
    ("platform", "share.platform"),
    ("workloads", "share.workloads"),
    ("cpu", "share.cpu"),
    ("trace", "share.trace"),
    ("core", "share.core"),
    ("noc.xpipes", "share.noc.xpipes"),
    ("explore", "share.explore"),
    ("serve", "share.serve"),
    ("report", "share.report"),
    ("bench", "share.bench"),
];

fn layer_metrics(
    t: &Tracer,
    client: &Client,
    c: &Counts,
    u: &Iteration,
) -> BTreeMap<&'static str, f64> {
    let secs = |name: &str| t.total_secs(name);
    let mut m = BTreeMap::new();
    m.insert("platform.build_s", secs("platform.build"));

    let cpu_s = secs("cpu.run");
    m.insert("cpu.run_s", cpu_s);
    m.insert("cpu.ticked_per_s", ratio(c.cpu_ticked as f64, cpu_s));
    m.insert(
        "cpu.visit_ratio",
        ratio(c.cpu_visited as f64, c.cpu_total as f64),
    );

    m.insert("trace.run_s", secs("trace.run"));
    let (mut traced, mut plain) = (0.0, 0.0);
    for (config, secs) in &c.trace_run {
        if let Some(cpu) = c.cpu_run.get(config) {
            traced += secs;
            plain += cpu;
        }
    }
    m.insert(
        "trace.overhead_ratio",
        if plain > 0.0 {
            traced / plain - 1.0
        } else {
            0.0
        },
    );
    m.insert("trace.events", c.trace_events as f64);
    m.insert("trace.codec.encode_s", secs("trace.codec.encode"));
    m.insert("trace.codec.decode_s", secs("trace.codec.decode"));
    m.insert("trace.codec.bytes", c.trace_bytes as f64);

    m.insert("core.translate_s", secs("core.translate"));
    m.insert("core.assemble_s", secs("core.assemble"));
    m.insert("core.tg_instructions", c.tg_instructions as f64);
    let replay_s = secs("core.replay");
    m.insert("core.replay_s", replay_s);
    m.insert(
        "core.replay_ticked_per_s",
        ratio(c.tg_ticked as f64, replay_s),
    );
    m.insert(
        "core.replay_skip_ratio",
        ratio(c.tg_skipped as f64, (c.tg_skipped + c.tg_ticked) as f64),
    );
    m.insert("core.images.encode_s", secs("core.images.encode"));
    m.insert("core.images.decode_s", secs("core.images.decode"));

    m.insert("sim.ticked_cycles", c.sim_ticked as f64);
    m.insert("sim.skipped_cycles", c.sim_skipped as f64);
    m.insert(
        "sim.visit_ratio",
        ratio(c.sim_visited as f64, c.sim_total as f64),
    );

    m.insert("noc.amba.conflicts", c.amba.conflicts as f64);
    m.insert("noc.amba.grant_wait_mean", c.amba.grant_wait_mean());
    m.insert(
        "noc.amba.utilization",
        ratio(c.amba.busy_cycles as f64, c.amba.cycles as f64),
    );
    m.insert("noc.xpipes.conflicts", c.xpipes.conflicts as f64);
    m.insert("noc.xpipes.grant_wait_mean", c.xpipes.grant_wait_mean());
    let xpipes_s = secs("noc.xpipes.run");
    m.insert("noc.xpipes.run_s", xpipes_s);
    m.insert(
        "noc.xpipes.cycles_per_s",
        ratio(c.synthetic_cycles as f64, xpipes_s),
    );
    m.insert(
        "noc.xpipes.accepted_rate",
        ratio(c.accepted_rates.iter().sum(), c.accepted_rates.len() as f64),
    );

    m.insert("explore.cache.trace_hits", u.cache.trace_hits as f64);
    m.insert("explore.cache.trace_misses", u.cache.trace_misses as f64);
    m.insert("explore.cache.image_hits", u.cache.image_hits as f64);
    m.insert("explore.cache.image_misses", u.cache.image_misses as f64);
    m.insert(
        "explore.cache.disk_hits",
        (u.cache.trace_disk_hits + u.cache.image_disk_hits) as f64,
    );
    m.insert("explore.store.save_s", secs("explore.store.save"));
    m.insert("explore.store.load_s", secs("explore.store.load"));
    m.insert("explore.store.bytes", c.store_bytes as f64);
    m.insert("explore.remote.hits", u.remote.hits as f64);
    m.insert("explore.remote.misses", u.remote.misses as f64);
    m.insert("explore.remote.published", u.remote.publishes as f64);
    m.insert("explore.remote.errors", u.remote.errors as f64);
    m.insert("explore.merge_s", secs("explore.merge"));

    m.insert("serve.http.request_s.p50", quantile(&client.latencies, 0.5));
    m.insert(
        "serve.http.request_s.p99",
        quantile(&client.latencies, 0.99),
    );
    m.insert("serve.http.requests", client.requests() as f64);
    m.insert("serve.http.failed", client.failed as f64);
    m.insert("serve.blob.put_s", secs("serve.blob.put"));
    m.insert("serve.blob.get_s", secs("serve.blob.get"));
    m.insert("serve.job.queue_s", c.job_queue_s);
    m.insert("serve.job.run_s", c.job_run_s);
    m.insert("report.render_s", secs("report.render"));

    m.insert("phase.campaign_s", u.campaign_s);
    m.insert("phase.sim_s", u.sim_s);
    m.insert("phase.reference_s", u.reference_s);
    m.insert("phase.replay_s", u.replay_s);
    m.insert("phase.gain", ratio(u.reference_s, u.replay_s));
    m.insert("phase.max_err_pct", u.max_err_pct);
    m.insert("phase.publish_s", u.publish_s);
    m.insert("phase.fetch_s", u.fetch_s);
    m.insert("phase.served_s", u.served_s);

    let traced_s = t.root_secs();
    m.insert("bench.traced_s", traced_s);
    m.insert("bench.tracing_overhead_s", traced_s - u.campaign_s);
    let by_layer = t.self_time_by_layer();
    let total: f64 = by_layer.values().sum();
    for (layer, share) in LAYERS {
        let own = by_layer.get(layer).copied().unwrap_or(0.0);
        m.insert(share, 100.0 * ratio(own, total));
    }
    m
}

/// Whether two runs of one platform agree on everything simulated.
fn same_run(a: &RunReport, b: &RunReport) -> bool {
    a.completed == b.completed
        && a.cycles == b.cycles
        && a.finish_cycles == b.finish_cycles
        && a.masters == b.masters
        && a.faults == b.faults
        && a.transactions == b.transactions
        && a.latency == b.latency
        && a.skipped_cycles == b.skipped_cycles
        && a.ticked_cycles == b.ticked_cycles
        && a.visited_component_cycles == b.visited_component_cycles
        && a.total_component_cycles == b.total_component_cycles
        && a.metrics == b.metrics
}

/// Serial vs partitioned runs of the workload's largest mesh point at
/// `min(2, host CPUs)` sim threads; the partitioned result must be
/// bit-identical to serial. All zeros on workloads without a mesh.
pub fn parallel(
    kind: Kind,
    seed: u64,
    checks: &mut Checks,
) -> Result<BTreeMap<&'static str, f64>, String> {
    const PAIRS: usize = 3;
    let mut m = BTreeMap::new();
    let threads = host_cpus().min(2);
    let job = spec(kind, seed)
        .expand()
        .into_iter()
        .max_by_key(|j| match j.interconnect {
            InterconnectChoice::Mesh(w, h) => (j.cores, usize::from(w) * usize::from(h)),
            _ => (0, 0),
        });
    let (mut serial, mut partitioned) = (Vec::new(), Vec::new());
    let mut last = None;
    if let Some(job) = job.filter(|j| matches!(j.interconnect, InterconnectChoice::Mesh(..))) {
        let synth = job.synth.ok_or("mesh job without a synthetic descriptor")?;
        let Workload::Synthetic { packets } = job.workload else {
            return Err("mesh job without the synthetic workload".into());
        };
        let build = || {
            build_synthetic_platform(
                job.cores,
                job.interconnect,
                synth,
                u64::from(packets),
                job.seed,
            )
            .map(|mut p| {
                p.enable_metrics();
                p
            })
            .map_err(|e| format!("{}: build: {e}", job.key()))
        };
        for _ in 0..PAIRS {
            let mut p = build()?;
            let t = Instant::now();
            let a = p.run(job.max_cycles);
            serial.push(t.elapsed().as_secs_f64());
            let mut p = build()?;
            let t = Instant::now();
            let b = p.run_with_threads(job.max_cycles, threads);
            partitioned.push(t.elapsed().as_secs_f64());
            checks.attempted += 2;
            checks.check(same_run(&a, &b), || {
                format!("{}: {threads}-thread run differs from serial", job.key())
            });
            last = b.partition;
        }
    }
    let (s, p) = (median(&serial), median(&partitioned));
    m.insert(
        "platform.parallel.threads",
        if last.is_some() { threads as f64 } else { 0.0 },
    );
    m.insert("platform.parallel.serial_s", s);
    m.insert("platform.parallel.run_s", p);
    m.insert("platform.parallel.speedup", ratio(s, p));
    m.insert(
        "platform.parallel.barrier_crossings",
        last.map_or(0.0, |p| p.barrier_crossings as f64),
    );
    m.insert(
        "platform.parallel.barrier_stalls",
        last.map_or(0.0, |p| p.barrier_stalls as f64),
    );
    m.insert(
        "platform.parallel.oversubscribed",
        last.map_or(0.0, |p| f64::from(u8::from(p.oversubscribed))),
    );
    Ok(m)
}
