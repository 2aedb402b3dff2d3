//! The HTTP front end: the shared [`NetServer`] accept pool routing onto
//! the [`JobQueue`].
//!
//! Threading model (see [`crate::net`]): the accept loop blocks in
//! `accept` and hands accepted sockets to a fixed pool of connection
//! workers over a bounded channel (a full channel answers `503` inline —
//! connections never pile up unbounded); [`Handle::drain`] wakes it with
//! one loopback connection. Sweep execution happens on the job queue's
//! own workers, so connection handling stays fast even while simulations
//! run. Event streams block on the job queue's condition variable
//! ([`JobQueue::wait_events`]) rather than polling it.

use std::io;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use dice_obs::{Json, MetricRegistry};

use crate::http::{Request, Response};
use crate::jobs::{JobQueue, JobQueueConfig, JobState, Submission};
use crate::net::{DrainHandle, Handled, NetConfig, NetMetrics, NetServer};
use crate::spec::SweepSpec;
use crate::sse::stream_sse;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (`0` = ephemeral; read the bound port
    /// from [`Server::local_addr`]).
    pub port: u16,
    /// Connection-handler threads.
    pub conn_workers: usize,
    /// Accepted connections parked for a handler before `503`s.
    pub conn_backlog: usize,
    /// Job queue configuration (admission bound, sweep workers, runner).
    pub queue: JobQueueConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            port: 7341,
            conn_workers: 4,
            conn_backlog: 64,
            queue: JobQueueConfig::default(),
        }
    }
}

/// A handle for steering a running server from another thread.
#[derive(Clone)]
pub struct Handle {
    drain: DrainHandle,
    queue: Arc<JobQueue>,
}

impl Handle {
    /// Begins a graceful drain: stop accepting connections, cancel jobs
    /// no worker started, let running sweeps finish. [`Server::run`]
    /// returns once the drain completes.
    pub fn drain(&self) {
        self.drain.drain();
        self.queue.drain();
    }

    /// Escalates a drain: cooperatively cancel in-flight sweeps (cells
    /// already claimed still finish; the rest are skipped).
    pub fn force_cancel(&self) {
        self.queue.force_cancel();
    }
}

/// The service: accept pool + job queue + metrics registry.
pub struct Server {
    net: NetServer,
    queue: Arc<JobQueue>,
    metrics: Arc<Mutex<MetricRegistry>>,
}

impl Server {
    /// Binds `127.0.0.1:port` and spawns the sweep workers.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let net = NetServer::bind(&NetConfig {
            port: config.port,
            conn_workers: config.conn_workers,
            conn_backlog: config.conn_backlog,
        })?;
        let metrics = Arc::new(Mutex::new(MetricRegistry::new()));
        let queue = JobQueue::new(config.queue, Arc::clone(&metrics));
        Ok(Server {
            net,
            queue,
            metrics,
        })
    }

    /// The bound address (useful with `port: 0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.net.local_addr()
    }

    /// A steering handle, safe to move to signal watchers or tests.
    #[must_use]
    pub fn handle(&self) -> Handle {
        Handle {
            drain: self.net.drain_handle(),
            queue: Arc::clone(&self.queue),
        }
    }

    /// Serves until [`Handle::drain`] is called, then drains: stops
    /// accepting, finishes parked and in-flight work, joins every
    /// worker, and returns. Accept-time errors on individual connections
    /// are counted, not fatal.
    pub fn run(&self) {
        let ctx = Arc::new(RouteCtx {
            queue: Arc::clone(&self.queue),
            metrics: Arc::clone(&self.metrics),
        });
        let handler =
            Arc::new(move |request: &Request, stream: &TcpStream| handle(request, stream, &ctx));
        let metrics = NetMetrics {
            registry: Arc::clone(&self.metrics),
            family: "serve",
        };
        self.net.run(handler, &metrics);
        // Accept loop has stopped; finish in-flight sweeps.
        self.queue.drain();
        self.queue.join();
    }
}

/// Everything a connection handler needs to answer requests.
struct RouteCtx {
    queue: Arc<JobQueue>,
    metrics: Arc<Mutex<MetricRegistry>>,
}

/// Routes one request: the events endpoint streams incrementally and owns
/// the socket for the job's lifetime; everything else is a single
/// fixed-length response.
fn handle(request: &Request, stream: &TcpStream, ctx: &RouteCtx) -> Handled {
    match events_job_id(request) {
        Some(Ok(id)) => {
            let mut out = stream;
            Handled::Streamed(stream_sse(&mut out, |cursor, timeout| {
                ctx.queue.wait_events(id, cursor, timeout)
            }))
        }
        Some(Err(response)) => Handled::Respond(response),
        None => Handled::Respond(route(request, ctx)),
    }
}

/// Recognizes `GET /v1/sweeps/:id/events`. `None` when the request is for
/// another endpoint; `Some(Err(response))` for a malformed events request.
#[must_use]
pub fn events_job_id(request: &Request) -> Option<Result<u64, Response>> {
    let path = request.path.split('?').next().unwrap_or("");
    let id_text = path.strip_prefix("/v1/sweeps/")?.strip_suffix("/events")?;
    if request.method != "GET" {
        return Some(Err(Response::error(405, "method not allowed")));
    }
    Some(match u64::from_str_radix(id_text, 16) {
        Ok(id) => Ok(id),
        Err(_) => Err(Response::error(400, "job id must be hex")),
    })
}

/// Dispatches one request to its endpoint.
fn route(request: &Request, ctx: &RouteCtx) -> Response {
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/version") => Response::json(
            200,
            Json::Obj(vec![
                ("name".into(), Json::str("dice-serve")),
                ("version".into(), Json::str(env!("CARGO_PKG_VERSION"))),
            ])
            .render(),
        ),
        ("GET", "/metrics") => Response::prometheus(&ctx.metrics),
        ("GET", "/v1/experiments") => Response::json(200, dice_bench::catalog_json().render()),
        ("POST", "/v1/sweeps") => submit_sweep(request, ctx),
        ("GET", p) if p.starts_with("/v1/sweeps/") => sweep_get(p, ctx),
        (_, "/healthz" | "/version" | "/metrics" | "/v1/experiments" | "/v1/sweeps") => {
            Response::error(405, "method not allowed")
        }
        _ => Response::error(404, "no such endpoint"),
    }
}

/// `POST /v1/sweeps`: parse, validate, admit.
fn submit_sweep(request: &Request, ctx: &RouteCtx) -> Response {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "body must be UTF-8 JSON");
    };
    let spec = match SweepSpec::parse(text) {
        Ok(spec) => spec,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    match ctx.queue.submit(spec) {
        Submission::Accepted {
            id,
            coalesced,
            state,
        } => accepted(id, coalesced, state),
        Submission::Overloaded { retry_after_s } => Response::error(429, "sweep queue full")
            .with_header("Retry-After", retry_after_s.to_string()),
        Submission::Draining => Response::error(503, "draining"),
    }
}

/// The `202` answer to an admitted (or coalesced) sweep submission.
#[must_use]
pub fn accepted(id: u64, coalesced: bool, state: JobState) -> Response {
    Response::json(
        202,
        Json::Obj(vec![
            ("id".into(), Json::str(format!("{id:016x}"))),
            ("state".into(), Json::str(state.as_str())),
            ("coalesced".into(), Json::Bool(coalesced)),
        ])
        .render(),
    )
}

/// Splits `/v1/sweeps/:id[/report|/trace]` into the job id and the
/// requested document (`None` for the status document).
///
/// # Errors
///
/// A `400` response when the id is not hex.
pub fn sweep_path(path: &str) -> Result<(u64, Option<&'static str>), Response> {
    let rest = path.trim_start_matches("/v1/sweeps/");
    let (id_text, want) = if let Some(id) = rest.strip_suffix("/report") {
        (id, Some("report"))
    } else if let Some(id) = rest.strip_suffix("/trace") {
        (id, Some("trace"))
    } else {
        (rest, None)
    };
    match u64::from_str_radix(id_text, 16) {
        Ok(id) => Ok((id, want)),
        Err(_) => Err(Response::error(400, "job id must be hex")),
    }
}

/// `GET /v1/sweeps/:id`, `GET /v1/sweeps/:id/report` and
/// `GET /v1/sweeps/:id/trace` (`/v1/sweeps/:id/events` streams and is
/// routed before dispatch reaches here).
fn sweep_get(path: &str, ctx: &RouteCtx) -> Response {
    let (id, want) = match sweep_path(path) {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    match want {
        Some(doc) => {
            let fetched = if doc == "report" {
                ctx.queue.report(id)
            } else {
                ctx.queue.trace(id)
            };
            match fetched {
                None => Response::error(404, "no such job"),
                Some(Ok(body)) => Response::json(200, body.as_str()),
                Some(Err(JobState::Failed)) => Response::error(500, "sweep failed"),
                Some(Err(JobState::Cancelled)) => Response::error(409, "sweep cancelled"),
                Some(Err(_)) => Response::error(409, "sweep not finished"),
            }
        }
        None => match ctx.queue.status(id) {
            Some(status) => Response::json(200, status.render()),
            None => Response::error(404, "no such job"),
        },
    }
}
