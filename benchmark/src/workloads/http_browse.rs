//! `http_browse`: the read-only browse mix against `WebServer::start`
//! over a real loopback socket.
//!
//! Phase A is a closed loop (two client threads, a quarter of the
//! budget) and yields `ops_per_s`; phase B is an open loop (seeded
//! Poisson arrivals at a fixed rate over at most two connections, the
//! other three quarters) whose requests are timed from their *due*
//! time and yield `op_p50_ms` / `op_p95_ms`. Open loop because
//! browsers are independent users: a stall must show up in the latency
//! of the requests queued behind it.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lodify::core::albums::{relational_baseline, AlbumSpec};
use lodify::core::mashup::MashupService;
use lodify::core::platform::Platform;
use lodify::core::search::{resource_point, SearchService};
use lodify::core::web::{self, Request, WebServer};
use lodify::rdf::Iri;

use crate::common::{ensure, fnv1a, Outcome, RunConfig, Tally};
use crate::fixture::{self, timed_setup};
use crate::gen::{self, Catalog, HttpCandidates, HttpOp, Route, RADII};
use crate::spans::Recorder;
use crate::stats::{peak_rss_mb, MetricSet, Summary};

/// Arrival rate of the open-loop phase: the heavy routes keep the
/// one-thread server busy for ≈15 % of the time, so about six in
/// seven `/about` requests (a tenth of the mix, ≈28 ms each) find it
/// free. Their own service time then spans the 90th to the 98th
/// percentile and the 95th sits in the middle of that plateau; what
/// queued behind a heavy request lies beyond it, in the 99th. At
/// 80 req/s the 95th percentile sat on the knee between the two,
/// where a few more or fewer collisions (another seed, a hiccup of
/// the host) moved it by 20–30 % from run to run.
pub const OPEN_LOOP_RATE_PER_S: f64 = 40.0;
/// Share of the time budget the closed loop gets; the open loop gets
/// the rest.
const CLOSED_LOOP_SHARE: f64 = 0.25;
const CLIENTS: usize = 2;
/// Forty dealt decks.
const STREAM_LEN: usize = 4000;
const SEARCH_POOL: usize = 96;
const ABOUT_POOL: usize = 64;
/// Open-loop latencies are summarised per window — this many windows
/// of consecutive requests, fewer when that would leave a window less
/// than [`MIN_LATENCY_WINDOW`] requests — and the median window is
/// reported: a stall delays everything queued behind it and would
/// otherwise own the run's tail. With five windows two may be spoilt.
const LATENCY_WINDOWS: usize = 5;
const MIN_LATENCY_WINDOW: usize = 40;
/// An open-loop request still unsent this long after the phase's end
/// is given up on (and counted as failed). Long enough that a host
/// running several times slower than usual only drains its backlog
/// late (and reports the latency that cost) instead of failing.
const GIVE_UP: Duration = Duration::from_secs(30);

struct Bench {
    platform: Arc<Platform>,
    server: WebServer,
    catalog: Catalog,
    pools: HttpCandidates,
    stream: Vec<HttpOp>,
    /// Expected body digest per distinct target of the stream.
    expected: HashMap<String, u64>,
    setup_s: f64,
    oracle_s: f64,
}

fn parse(target: &str) -> Request {
    Request::parse(&format!("GET {target} HTTP/1.1"), &[]).expect("generated targets parse")
}

fn query_param<'a>(request: &'a Request, key: &str) -> &'a str {
    request.query.get(key).map_or("", String::as_str)
}

fn album_spec(request: &Request) -> AlbumSpec {
    AlbumSpec::near_monument(
        query_param(request, "monument"),
        "it",
        query_param(request, "radius").parse().unwrap_or(RADII[0]),
    )
}

fn picture_iri(request: &Request) -> Iri {
    let pid = request.path.rsplit('/').next().and_then(|p| p.parse().ok());
    Platform::picture_iri(pid.unwrap_or(0))
}

/// Builds the fixture, walks the generator's candidates against the
/// oracle and pre-computes the expected answer of every target.
fn build(cfg: &RunConfig, tally: &mut Tally) -> Bench {
    let ((platform, server), setup_s) = timed_setup(cfg.scale.setup_reps, || {
        let platform = Arc::new(fixture::read_platform(cfg.seed, cfg.scale));
        let server = WebServer::start(Arc::clone(&platform), 0).expect("bind loopback");
        (platform, server)
    });

    let oracle_started = Instant::now();
    let catalog = fixture::catalog(&platform);
    let store = platform.store();
    let candidates = gen::http_candidates(cfg.seed, &catalog);

    let search = candidates
        .search
        .into_iter()
        .filter(|t| !SearchService::suggest(store, query_param(&parse(t), "q"), 8).is_empty())
        .take(SEARCH_POOL)
        .collect();
    // Every album is checked against the relational scan: an answer
    // computed without SPARQL or the store. Empty albums are rejected.
    let mut album = Vec::new();
    for (target, monument) in candidates.album.iter().zip(
        catalog
            .monuments
            .iter()
            .flat_map(|m| std::iter::repeat_n(m, RADII.len())),
    ) {
        let spec = album_spec(&parse(target));
        let mut links = platform.view_album(&spec).unwrap_or_default();
        let mut baseline =
            relational_baseline(platform.db(), monument.point, spec.radius_km, None, false)
                .unwrap_or_default();
        links.sort_unstable();
        baseline.sort_unstable();
        tally.require(ensure(links == baseline, || {
            format!(
                "{target}: {} links, relational baseline {}",
                links.len(),
                baseline.len()
            )
        }));
        if !links.is_empty() {
            album.push(target.clone());
        }
    }
    let about = candidates
        .about
        .into_iter()
        .filter(|t| resource_point(store, &picture_iri(&parse(t))).is_some())
        .take(ABOUT_POOL)
        .collect();
    let resource = candidates
        .resource
        .into_iter()
        .filter(|t| {
            Iri::new(query_param(&parse(t), "iri").to_string())
                .ok()
                .and_then(|iri| SearchService::content_for_resource(store, &iri, 1.0).ok())
                .is_some_and(|hits| !hits.is_empty())
        })
        .collect();
    let pools = HttpCandidates {
        search,
        album,
        about,
        resource,
    };

    let stream = gen::http_stream(cfg.seed, &pools, &catalog, STREAM_LEN);
    let mut expected = HashMap::new();
    for op in &stream {
        if !expected.contains_key(&op.target) {
            let response = web::route(&platform, &parse(&op.target));
            tally.require(ensure(response.status == 200, || {
                format!("{}: oracle status {}", op.target, response.status)
            }));
            expected.insert(op.target.clone(), fnv1a(response.body.as_bytes()));
        }
    }
    let oracle_s = oracle_started.elapsed().as_secs_f64();

    Bench {
        platform,
        server,
        catalog,
        pools,
        stream,
        expected,
        setup_s,
        oracle_s,
    }
}

/// One `GET` on a fresh connection (the server closes after replying).
fn fetch(addr: SocketAddr, target: &str) -> Result<(u16, String), String> {
    let io = |what: &str, e: std::io::Error| format!("{target}: {what}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(|e| io("connect", e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| io("set timeout", e))?;
    stream.set_nodelay(true).map_err(|e| io("set nodelay", e))?;
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
        .map_err(|e| io("write", e))?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| io("read", e))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{target}: no header terminator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{target}: no status line"))?;
    Ok((status, body.to_string()))
}

impl Bench {
    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Fetches `target` and checks status and body against the oracle.
    fn get(&self, target: &str) -> Result<(), String> {
        let (status, body) = fetch(self.addr(), target)?;
        ensure(status == 200, || format!("{target}: status {status}"))?;
        ensure(
            self.expected.get(target) == Some(&fnv1a(body.as_bytes())),
            || format!("{target}: body differs from the oracle's"),
        )
    }

    /// Touches every album (so the cache is warm, as on a long-running
    /// server) and a slice of the stream.
    fn warm_up(&self, tally: &mut Tally) {
        let albums = self
            .pools
            .album
            .iter()
            .filter(|t| self.expected.contains_key(*t));
        for target in albums.chain(self.stream.iter().take(64).map(|op| &op.target)) {
            tally.require(self.get(target));
        }
    }

    /// Closed loop: each client sends its next request when the last
    /// one completed. Returns completed requests per second and their
    /// count.
    fn closed_loop(&self, duration: Duration, tally: &mut Tally) -> (f64, usize) {
        let started = Instant::now();
        let done: usize = on_clients(tally, |client, tally| {
            let mut done = 0;
            let mut i = client;
            while started.elapsed() < duration {
                if tally.op(self.get(&self.stream[i % self.stream.len()].target)) {
                    done += 1;
                }
                i += CLIENTS;
            }
            done
        })
        .into_iter()
        .sum();
        (done as f64 / started.elapsed().as_secs_f64(), done)
    }

    /// Open loop: request `i` of `ops` is due at `due[i]`; whichever of
    /// the two connections is free sends it (late, if both are busy).
    /// Returns the timing of every request that succeeded, in due order.
    fn open_loop(&self, ops: &[HttpOp], due: &[f64], tally: &mut Tally) -> Vec<Timing> {
        let next = AtomicUsize::new(0);
        let horizon = Duration::from_secs_f64(due.last().copied().unwrap_or(0.0)) + GIVE_UP;
        let started = Instant::now();
        let mut timings: Vec<Timing> = on_clients(tally, |_, tally| {
            let mut timings = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= due.len() {
                    return timings;
                }
                let due_at = Duration::from_secs_f64(due[i]);
                if let Some(wait) = due_at.checked_sub(started.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = started.elapsed();
                if sent > horizon {
                    tally.op(Err(format!("request {i} never sent")));
                    continue;
                }
                if tally.op(self.get(&ops[i % ops.len()].target)) {
                    timings.push(Timing {
                        index: i,
                        from_due_ms: (started.elapsed() - due_at).as_secs_f64() * 1e3,
                        sent_late_ms: (sent - due_at).as_secs_f64() * 1e3,
                    });
                }
            }
        })
        .into_iter()
        .flatten()
        .collect();
        timings.sort_unstable_by_key(|t| t.index);
        timings
    }

    /// The server's own counters must agree that nothing went wrong.
    fn check_server(&self, tally: &mut Tally) -> [u64; 3] {
        let telemetry = self.server.telemetry();
        let counts =
            ["web.connections", "web.errors", "web.timeouts"].map(|c| telemetry.counter(c));
        tally.require(ensure(counts[1] == 0 && counts[2] == 0, || {
            format!(
                "server counted {} errors, {} timeouts",
                counts[1], counts[2]
            )
        }));
        counts
    }
}

/// One open-loop request that succeeded.
struct Timing {
    /// Position in the schedule.
    index: usize,
    /// Completion minus the time it was due: the latency a user who
    /// arrived on schedule saw, queueing in the generator included.
    from_due_ms: f64,
    /// Send time minus due time: how late the generator ran.
    sent_late_ms: f64,
}

/// Runs `work` on [`CLIENTS`] threads, each with a tally of its own,
/// and merges the tallies into `tally`.
fn on_clients<T: Send>(tally: &mut Tally, work: impl Fn(usize, &mut Tally) -> T + Sync) -> Vec<T> {
    let parts: Vec<(T, Tally)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let work = &work;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    (work(client, &mut tally), tally)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    parts
        .into_iter()
        .map(|(out, part)| {
            tally.merge(part);
            out
        })
        .collect()
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut tally = Tally::default();
    let bench = build(cfg, &mut tally);
    bench.warm_up(&mut tally);

    let (ops_per_s, completed) = bench.closed_loop(
        Duration::from_secs_f64(cfg.seconds * CLOSED_LOOP_SHARE),
        &mut tally,
    );

    let due = gen::poisson_schedule(
        cfg.seed,
        OPEN_LOOP_RATE_PER_S,
        cfg.seconds * (1.0 - CLOSED_LOOP_SHARE),
    );
    // Phase B reads the stream from its middle: other requests than
    // the warm-up's.
    let ops = &bench.stream[STREAM_LEN / 2..];
    let latencies: Vec<f64> = bench
        .open_loop(ops, &due, &mut tally)
        .iter()
        .map(|t| t.from_due_ms)
        .collect();
    bench.check_server(&mut tally);

    let mut metrics = MetricSet::default();
    metrics.push("ops_per_s", "1/s", ops_per_s, completed);
    metrics.latency(
        "op_p50_ms",
        "op_p95_ms",
        Summary::of_windows(
            &latencies,
            (latencies.len() / LATENCY_WINDOWS).max(MIN_LATENCY_WINDOW),
        ),
    );
    metrics.push("setup_s", "s", bench.setup_s, cfg.scale.setup_reps);
    metrics.push("peak_rss_mb", "MiB", peak_rss_mb(), 1);
    Outcome {
        tally,
        metrics,
        spans: None,
    }
}

/// The traced run: the same generated stream at a fixed op count, once
/// through the socket (round trips, send lateness) and twice in
/// process — plain, then under harness spans.
pub fn trace(cfg: &RunConfig) -> Outcome {
    let mut tally = Tally::default();
    let bench = build(cfg, &mut tally);
    bench.warm_up(&mut tally);
    let platform = &bench.platform;
    let store = platform.store();
    let n = cfg.scale.traced_ops;
    let ops = &bench.stream[..n];
    let mut metrics = MetricSet::default();

    // Open loop, as in the measured run: how late did the generator send?
    let due = gen::poisson_schedule(
        cfg.seed,
        OPEN_LOOP_RATE_PER_S,
        n as f64 / OPEN_LOOP_RATE_PER_S,
    );
    let lateness: Vec<f64> = bench
        .open_loop(ops, &due, &mut tally)
        .iter()
        .map(|t| t.sent_late_ms)
        .collect();
    if let Some(lag) = Summary::of(&lateness) {
        metrics.push("loadgen.sched_lag_p95_ms", "ms", lag.p95, lag.n);
    }

    // One connection, nothing else in flight: the round trip of each
    // request, to set against its in-process time below.
    let round_trip_us: Vec<Option<f64>> = ops
        .iter()
        .map(|op| {
            let started = Instant::now();
            tally
                .op(bench.get(&op.target))
                .then(|| started.elapsed().as_secs_f64() * 1e6)
        })
        .collect();

    // In process, twice: plain (parse + handle as the connection
    // handler calls them) and under spans that partition the request.
    // The two run back to back, the order alternating, so the host's
    // drift cancels out of the overhead ratio. The shadow calls that
    // follow re-run the layer below the route on the same input,
    // outside any driven span.
    let cache_before = platform.album_cache_stats();
    let mut rec = Recorder::new();
    let mut plain_us = Vec::with_capacity(ops.len());
    let mut bytes = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let line = format!("GET {} HTTP/1.1", op.target);
        let plain = || {
            let started = Instant::now();
            let request = Request::parse(&line, &[]).expect("generated targets parse");
            std::hint::black_box(web::handle_request(platform, &request));
            started.elapsed().as_secs_f64() * 1e6
        };
        let driven = |rec: &mut Recorder| {
            rec.next_op();
            let root = rec.enter("web.request");
            let request = rec
                .time("web.parse", || Request::parse(&line, &[]))
                .expect("generated targets parse");
            let response = rec.time("web.handle", || web::handle_request(platform, &request));
            rec.exit(root);
            (request, response)
        };
        let (request, response) = if i % 2 == 0 {
            plain_us.push(plain());
            driven(&mut rec)
        } else {
            let driven = driven(&mut rec);
            plain_us.push(plain());
            driven
        };
        tally.op(ensure(
            bench.expected.get(&op.target) == Some(&fnv1a(response.body.as_bytes())),
            || format!("{}: in-process body differs from the oracle's", op.target),
        ));
        bytes.push(response.body.len() as f64);

        let routed = rec.time(route_span(op.route), || web::route(platform, &request));
        std::hint::black_box(routed);
        match op.route {
            Route::Search => {
                let hits = rec.time("search.suggest", || {
                    SearchService::suggest(store, query_param(&request, "q"), 8)
                });
                std::hint::black_box(hits);
            }
            Route::Resource => {
                let iri =
                    Iri::new(query_param(&request, "iri").to_string()).expect("oracle-checked");
                let hits = rec.time("search.content", || {
                    SearchService::content_for_resource(store, &iri, 1.0)
                });
                std::hint::black_box(hits).ok();
            }
            Route::About => {
                let iri = picture_iri(&request);
                let mashup = rec.time("mashup.about", || {
                    MashupService::standard().about(store, &iri)
                });
                std::hint::black_box(mashup).ok();
            }
            Route::Album => {
                let spec = album_spec(&request);
                let links = rec.time("albums.view_hit", || platform.view_album(&spec));
                std::hint::black_box(links).ok();
            }
            Route::Picture => {}
        }
    }
    let cache_after = platform.album_cache_stats();
    let (hits, misses) = (
        cache_after.hits - cache_before.hits,
        cache_after.misses - cache_before.misses,
    );
    let socket_wait: Vec<f64> = round_trip_us
        .iter()
        .zip(&plain_us)
        .filter_map(|(rtt, plain)| Some(rtt.as_ref()? - plain))
        .collect();
    metrics.median("web.socket_wait_p50_us", "us", &socket_wait);
    metrics.span_medians(
        &rec,
        &[
            "web.parse_us",
            "web.handle_us",
            "web.route.search_us",
            "web.route.album_us",
            "web.route.picture_us",
            "web.route.about_us",
            "web.route.resource_us",
            "search.suggest_us",
            "search.content_us",
            "mashup.about_us",
            "albums.view_hit_us",
        ],
    );
    metrics.median("web.response_bytes", "bytes", &bytes);
    metrics.hit_ratio("albums.cache_hit_ratio", hits, misses);
    let traced_us: f64 = rec.durations_us("web.request").iter().sum();
    metrics.push(
        "loadgen.trace_overhead_ratio",
        "ratio",
        traced_us / plain_us.iter().sum::<f64>(),
        ops.len(),
    );

    // Cold views last, so the cleared cache disturbs nothing above.
    for monument in &bench.catalog.monuments {
        let spec = AlbumSpec::near_monument(&monument.name, "it", RADII[0]);
        platform.album_cache().clear();
        rec.next_op();
        let links = rec.time("albums.view_miss", || platform.view_album(&spec));
        std::hint::black_box(links).ok();
    }
    metrics.span_medians(&rec, &["albums.view_miss_us"]);

    let [connections, errors, timeouts] = bench.check_server(&mut tally);
    metrics.push("web.connections", "count", connections as f64, 1);
    metrics.push("web.errors", "count", errors as f64, 1);
    metrics.push("web.timeouts", "count", timeouts as f64, 1);
    metrics.push("loadgen.oracle_s", "s", bench.oracle_s, 1);
    Outcome {
        tally,
        metrics,
        spans: Some(rec),
    }
}

fn route_span(route: Route) -> &'static str {
    match route {
        Route::Search => "web.route.search",
        Route::Album => "web.route.album",
        Route::Picture => "web.route.picture",
        Route::About => "web.route.about",
        Route::Resource => "web.route.resource",
    }
}
