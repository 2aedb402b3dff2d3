//! The fleet the fabric suites boot: real workers and a real coordinator
//! on ephemeral ports, plus the direct-run reference their reports must
//! match byte for byte.

// Each suite compiles its own copy and uses a different subset.
#![allow(dead_code)]

use std::path::PathBuf;
use std::time::Duration;

use dice_core::FaultKind;
use dice_fabric::{Coordinator, CoordinatorConfig, CoordinatorHandle, Worker, WorkerConfig};
use dice_obs::Json;
use dice_runner::{Runner, RunnerConfig};
use dice_serve::net::NetConfig;
use dice_serve::{http_get, render_runs, SweepSpec};

/// A fresh scratch directory under the system temp dir.
pub fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dice-fabric-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The spec under test: 2 orgs x 2 workloads = 4 cells, small enough to
/// finish in well under a second per cell.
pub fn spec_text(seed: u64) -> String {
    format!(
        r#"{{"orgs":["base","dice36"],"workloads":["gcc","mcf"],"scale":4096,"warmup":50,"measure":150,"seed":{seed}}}"#
    )
}

/// What a direct single-node `dice-runner` invocation renders for `spec`.
pub fn direct_report(spec: &str, cache: PathBuf) -> String {
    let spec = SweepSpec::parse(spec).expect("valid spec");
    let runner = Runner::new(RunnerConfig {
        jobs: 2,
        cache_dir: Some(cache),
        ..RunnerConfig::default()
    })
    .expect("runner");
    render_runs(&runner.run(spec.to_cells())).render()
}

pub struct TestWorker {
    pub addr: String,
    handle: dice_fabric::WorkerHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestWorker {
    pub fn boot(cache: PathBuf, inject: Option<FaultKind>) -> Self {
        let worker = Worker::bind(WorkerConfig {
            net: NetConfig {
                port: 0,
                conn_workers: 2,
                conn_backlog: 16,
            },
            runner: RunnerConfig {
                jobs: 1,
                cache_dir: Some(cache),
                ..RunnerConfig::default()
            },
            inject,
        })
        .expect("bind worker");
        let addr = worker.local_addr().expect("worker addr").to_string();
        let handle = worker.handle();
        let thread = std::thread::spawn(move || worker.run());
        TestWorker {
            addr,
            handle,
            thread: Some(thread),
        }
    }

    /// Stops the worker and waits for its listener to close, so later
    /// dispatches to its address fail at connect time.
    pub fn kill(mut self) {
        self.handle.drain();
        if let Some(thread) = self.thread.take() {
            thread.join().expect("worker thread");
        }
    }
}

impl Drop for TestWorker {
    fn drop(&mut self) {
        self.handle.drain();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

pub struct TestCoordinator {
    pub addr: String,
    pub handle: CoordinatorHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestCoordinator {
    /// The suites' coordinator settings for a fleet of `workers`.
    pub fn config(workers: &[&TestWorker]) -> CoordinatorConfig {
        CoordinatorConfig {
            net: NetConfig {
                port: 0,
                conn_workers: 4,
                conn_backlog: 16,
            },
            workers: workers.iter().map(|w| w.addr.clone()).collect(),
            backoff: Duration::from_millis(10),
            cell_timeout: Duration::from_secs(30),
            ..CoordinatorConfig::default()
        }
    }

    pub fn boot(workers: &[&TestWorker]) -> Self {
        Self::start(Self::config(workers))
    }

    pub fn start(config: CoordinatorConfig) -> Self {
        let coordinator = Coordinator::bind(config).expect("bind coordinator");
        let addr = coordinator
            .local_addr()
            .expect("coordinator addr")
            .to_string();
        let handle = coordinator.handle();
        let thread = std::thread::spawn(move || coordinator.run());
        TestCoordinator {
            addr,
            handle,
            thread: Some(thread),
        }
    }

    pub fn membership(&self) -> Json {
        let resp = http_get(&self.addr, "/v1/fabric/membership").expect("GET membership");
        assert_eq!(resp.status, 200);
        Json::parse(&resp.text()).expect("membership JSON")
    }

    pub fn shutdown(mut self) {
        self.handle.drain();
        if let Some(thread) = self.thread.take() {
            thread.join().expect("coordinator thread");
        }
    }
}

impl Drop for TestCoordinator {
    fn drop(&mut self) {
        self.handle.drain();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
