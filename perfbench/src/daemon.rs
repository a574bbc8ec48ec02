//! An in-process `ntg-serve` daemon (`JobServer` + `http::Server` on
//! loopback) and the client calls the benchmark makes against it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ntg_explore::{CampaignSpec, Json, RemoteTier};
use ntg_serve::http::{self, Handler, Server};
use ntg_serve::{HttpRemote, JobServer, ServerConfig};

/// A running daemon; [`Daemon::stop`] shuts the accept loop down and
/// joins it.
pub struct Daemon {
    pub addr: String,
    pub data: PathBuf,
    pub workers: usize,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts a daemon over a fresh data directory with `workers`
    /// campaign workers. Its workers tier their local store over the
    /// daemon's own blob store, so served campaigns fetch what earlier
    /// clients published instead of rebuilding it.
    pub fn start(data: &Path, workers: usize) -> Result<Self, String> {
        let listener = Server::bind("127.0.0.1:0")?;
        let addr = listener.local_addr().to_string();
        let server = JobServer::open(ServerConfig {
            data: data.to_path_buf(),
            workers,
            store: None,
            remote: Some(Arc::new(HttpRemote::new(&addr)) as Arc<dyn RemoteTier>),
            quiet: true,
        })?;
        let handler: Arc<Handler> = Arc::new(move |req| server.handle(&req));
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let thread = std::thread::spawn(move || listener.serve(handler, flag));
        Ok(Self {
            addr,
            data: data.to_path_buf(),
            workers,
            shutdown,
            thread: Some(thread),
        })
    }

    /// Stops the accept loop and waits for it to end.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::Relaxed);
        match self.thread.take() {
            Some(t) => t
                .join()
                .map_err(|_| "daemon accept loop panicked".to_string()),
            None => Ok(()),
        }
    }

    /// The directory the daemon keeps a job's files in.
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.data.join("jobs").join(id)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One client-side HTTP exchange, as the benchmark saw it.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Exchange {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Client log: every request's latency and whether it failed.
#[derive(Debug, Default)]
pub struct Client {
    pub latencies: Vec<f64>,
    pub failed: u64,
}

impl Client {
    fn record(&mut self, started: Instant, res: Result<(u16, Vec<u8>), String>) -> Exchange {
        self.latencies.push(started.elapsed().as_secs_f64());
        let ex = match res {
            Ok((status, body)) => Exchange { status, body },
            Err(e) => Exchange {
                status: 0,
                body: e.into_bytes(),
            },
        };
        if !ex.ok() {
            self.failed += 1;
        }
        ex
    }

    pub fn get(&mut self, addr: &str, path: &str) -> Exchange {
        let t = Instant::now();
        let res = http::get(addr, path);
        self.record(t, res)
    }

    pub fn put(&mut self, addr: &str, path: &str, body: &[u8]) -> Exchange {
        let t = Instant::now();
        let res = http::put(addr, path, body);
        self.record(t, res)
    }

    pub fn post_json(&mut self, addr: &str, path: &str, body: &str) -> Exchange {
        let t = Instant::now();
        let res = http::post_json(addr, path, body);
        self.record(t, res)
    }

    pub fn requests(&self) -> u64 {
        self.latencies.len() as u64
    }
}

/// Pause between progress polls.
const POLL: Duration = Duration::from_millis(2);

/// What one served campaign returned.
pub struct Served {
    pub id: String,
    pub canonical: Vec<u8>,
    pub timings: Vec<u8>,
    pub metrics: Vec<u8>,
    pub table2: Vec<u8>,
    /// Submit → first `shard_started` event seen.
    pub queue_s: f64,
    /// First `shard_started` → `merged` event seen.
    pub run_s: f64,
}

/// POSTs `spec`, polls its progress events until the job is done (or
/// failed), then GETs the canonical JSONL, both sidecars and the
/// `table2` view.
pub fn serve_campaign(
    client: &mut Client,
    addr: &str,
    spec: &CampaignSpec,
) -> Result<Served, String> {
    let submitted = Instant::now();
    let ex = client.post_json(addr, "/jobs", &spec.to_json().render());
    if !ex.ok() {
        return Err(format!("POST /jobs: HTTP {}", ex.status));
    }
    let status = Json::parse(&String::from_utf8_lossy(&ex.body))?;
    let id = match status.get("id") {
        Some(Json::Str(id)) => id.clone(),
        _ => return Err("POST /jobs: response has no job id".into()),
    };
    let mut seen = 0;
    let mut started: Option<Instant> = None;
    let mut merged: Option<Instant> = None;
    loop {
        let ex = client.get(addr, &format!("/jobs/{id}/events?from={seen}"));
        if !ex.ok() {
            return Err(format!("GET events: HTTP {}", ex.status));
        }
        let mut done = false;
        for line in String::from_utf8_lossy(&ex.body).lines() {
            seen += 1;
            let event = Json::parse(line)?;
            match event.get("event").and_then(Json::as_str) {
                Some("shard_started") => {
                    started.get_or_insert_with(Instant::now);
                }
                Some("merged") => merged = Some(Instant::now()),
                Some("done") => done = true,
                Some("error") => return Err(format!("served job {id} failed: {line}")),
                _ => {}
            }
        }
        if done {
            break;
        }
        if submitted.elapsed() > Duration::from_secs(120) {
            return Err(format!("served job {id} did not finish within 120 s"));
        }
        std::thread::sleep(POLL);
    }
    // The `done` event is published just before the job's state turns
    // done; results are served only after that, so wait for the state.
    loop {
        let ex = client.get(addr, &format!("/jobs/{id}"));
        let state = Json::parse(&String::from_utf8_lossy(&ex.body))
            .ok()
            .and_then(|s| s.get("state").and_then(Json::as_str).map(str::to_string));
        match state.as_deref() {
            Some("done") => break,
            Some("queued" | "running") => std::thread::sleep(POLL),
            _ => return Err(format!("GET /jobs/{id}: HTTP {}", ex.status)),
        }
    }
    let merged = merged.ok_or_else(|| format!("served job {id} finished without merging"))?;
    let started = started.unwrap_or(merged);
    let mut fetch = |what: &str| -> Result<Vec<u8>, String> {
        let ex = client.get(addr, &format!("/jobs/{id}/{what}"));
        if ex.ok() {
            Ok(ex.body)
        } else {
            Err(format!("GET /jobs/{id}/{what}: HTTP {}", ex.status))
        }
    };
    let canonical = fetch("results")?;
    let timings = fetch("timings")?;
    let metrics = fetch("metrics")?;
    let table2 = fetch("report/table2")?;
    Ok(Served {
        canonical,
        timings,
        metrics,
        table2,
        queue_s: (started - submitted).as_secs_f64(),
        run_s: (merged - started).as_secs_f64(),
        id,
    })
}
