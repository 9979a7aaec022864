//! The web/mobile interface (§3–§4), as a library: request routing,
//! HTML rendering, and a minimal std-only HTTP server.
//!
//! "The platform's web interface offers users an environment to
//! perform many operations … when it is accessed from a mobile device,
//! redirects the user automatically to the mobile interface" (§3). The
//! routes mirror the paper's flows:
//!
//! * `GET /` — the search box (Fig. 2);
//! * `GET /search?q=<prefix>` — the AJAX candidate list (Fig. 3);
//! * `GET /resource?iri=<iri>` — content associated with a selected
//!   resource (Fig. 4);
//! * `GET /picture/<pid>` — one picture with its *friendly-format*
//!   context tags ("context tags are displayed in a friendly format,
//!   and are separated from user-defined tags", §1.1);
//! * `GET /about/<pid>` — the "About" mashup (§4.1);
//! * `GET /album?monument=<label>&lang=<tag>&radius=<km>` — a virtual
//!   album (§2.3).
//!
//! Desktop vs mobile rendering is selected by the `User-Agent` header,
//! reproducing the §3 redirect behaviour. The HTTP layer is
//! deliberately tiny (HTTP/1.1, GET only, one request per connection)
//! — enough to drive the platform from a browser or `curl` without
//! external dependencies. [`WebServer`] serves it in three stages: an
//! acceptor blocked in `accept()`, a bounded FIFO of accepted
//! connections, and a fixed pool of workers that each read, admit,
//! route and write (DESIGN.md §18).

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use lodify_rdf::Iri;
use lodify_tripletags::Tag;

use crate::admission::Permit;
use crate::error::PlatformError;
use crate::mashup::MashupService;
use crate::platform::Platform;
use crate::search::SearchService;

/// A parsed (minimal) HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Path without the query string.
    pub path: String,
    /// Decoded query parameters.
    pub query: BTreeMap<String, String>,
    /// Whether the `User-Agent` looks like a mobile device (§3's
    /// automatic redirect to the mobile interface).
    pub mobile: bool,
    /// Caller identity for admission control, from the `X-Tenant`
    /// header (preferred) or a `tenant` query parameter. Anonymous
    /// requests share one quota bucket.
    pub tenant: Option<String>,
}

impl Request {
    /// Parses a request line + headers.
    pub fn parse(request_line: &str, headers: &[(String, String)]) -> Option<Request> {
        let mut parts = request_line.split_whitespace();
        let method = parts.next()?;
        if method != "GET" {
            return None;
        }
        let target = parts.next()?;
        let (path, query_text) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        let mut query = BTreeMap::new();
        for pair in query_text.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.insert(url_decode(k), url_decode(v));
        }
        let mobile = headers
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case("user-agent"))
            .map(|(_, value)| {
                let ua = value.to_lowercase();
                ua.contains("mobile") || ua.contains("android") || ua.contains("iphone")
            })
            .unwrap_or(false);
        let tenant = headers
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case("x-tenant"))
            .map(|(_, value)| value.trim().to_string())
            .or_else(|| query.get("tenant").cloned())
            .filter(|t| !t.is_empty());
        Some(Request {
            path: path.to_string(),
            query,
            mobile,
            tenant,
        })
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Content type.
    pub content_type: &'static str,
    /// Body.
    pub body: String,
    /// Request id assigned by [`handle_request`], echoed to the client
    /// as an `X-Request-Id` header and recorded in the access log.
    pub request_id: Option<u64>,
    /// Trace id of the request's root span, assigned by
    /// [`handle_request`] when tracing is live and echoed to the
    /// client as an `X-Trace-Id` header — paste it into `/trace/<id>`
    /// to see the request's span tree.
    pub trace_id: Option<u64>,
}

impl Response {
    /// 200 with HTML.
    pub fn html(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            body,
            request_id: None,
            trace_id: None,
        }
    }

    /// 200 with an explicit content type (plain-text expositions).
    pub fn text(content_type: &'static str, body: String) -> Response {
        Response {
            status: 200,
            content_type,
            body,
            request_id: None,
            trace_id: None,
        }
    }

    /// 404.
    pub fn not_found(what: &str) -> Response {
        Response {
            status: 404,
            content_type: "text/plain; charset=utf-8",
            body: format!("not found: {what}\n"),
            request_id: None,
            trace_id: None,
        }
    }

    /// 400.
    pub fn bad_request(message: &str) -> Response {
        Response {
            status: 400,
            content_type: "text/plain; charset=utf-8",
            body: format!("bad request: {message}\n"),
            request_id: None,
            trace_id: None,
        }
    }

    /// 429: the tenant's quota bucket is empty.
    pub fn too_many_requests(tenant: &str) -> Response {
        Response {
            status: 429,
            content_type: "text/plain; charset=utf-8",
            body: format!("quota exceeded for tenant {tenant}: retry later\n"),
            request_id: None,
            trace_id: None,
        }
    }

    /// 503: the node is shedding this request class under overload.
    pub fn service_unavailable() -> Response {
        Response {
            status: 503,
            content_type: "text/plain; charset=utf-8",
            body: "overloaded: request shed, retry later\n".to_string(),
            request_id: None,
            trace_id: None,
        }
    }

    /// 431: the request head is larger than the server will buffer.
    pub fn header_fields_too_large() -> Response {
        Response {
            status: 431,
            content_type: "text/plain; charset=utf-8",
            body: "request head too large\n".to_string(),
            request_id: None,
            trace_id: None,
        }
    }

    /// Status line, headers and body in one buffer, so a response
    /// leaves in one write. `server_timing` is the value of the
    /// `Server-Timing` header, when the caller measured one.
    fn to_bytes(&self, server_timing: Option<&str>) -> Vec<u8> {
        use std::fmt::Write as _;
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        };
        let mut out = String::with_capacity(256 + self.body.len());
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len()
        );
        if let Some(id) = self.request_id {
            let _ = write!(out, "X-Request-Id: {id}\r\n");
        }
        if let Some(id) = self.trace_id {
            let _ = write!(out, "X-Trace-Id: {id:016x}\r\n");
        }
        if let Some(timing) = server_timing {
            let _ = write!(out, "Server-Timing: {timing}\r\n");
        }
        out.push_str("Connection: close\r\n\r\n");
        out.push_str(&self.body);
        out.into_bytes()
    }
}

/// Routes requests against a platform. Pure (no I/O): fully unit-testable.
pub fn route(platform: &Platform, request: &Request) -> Response {
    match request.path.as_str() {
        "/" => Response::html(render_home(request.mobile)),
        "/search" => {
            let Some(q) = request.query.get("q") else {
                return Response::bad_request("missing q parameter");
            };
            let limit = request
                .query
                .get("limit")
                .and_then(|l| l.parse().ok())
                .unwrap_or(8);
            let suggestions = SearchService::suggest(platform.store(), q, limit);
            Response::html(render_suggestions(q, &suggestions, request.mobile))
        }
        "/resource" => {
            let Some(iri_text) = request.query.get("iri") else {
                return Response::bad_request("missing iri parameter");
            };
            let Ok(iri) = Iri::new(iri_text.clone()) else {
                return Response::bad_request("malformed iri");
            };
            match SearchService::content_for_resource(platform.store(), &iri, 1.0) {
                Ok(hits) => Response::html(render_content_list(iri_text, &hits, request.mobile)),
                Err(e) => Response::bad_request(&e.to_string()),
            }
        }
        "/album" => {
            let Some(monument) = request.query.get("monument") else {
                return Response::bad_request("missing monument parameter");
            };
            let lang = request
                .query
                .get("lang")
                .map(String::as_str)
                .unwrap_or("it");
            let radius = match request.query.get("radius").map(|r| r.parse::<f64>()) {
                None => 0.3,
                Some(Ok(radius)) => radius,
                Some(Err(_)) => return Response::bad_request("malformed radius"),
            };
            let spec = crate::albums::AlbumSpec::near_monument(monument, lang, radius);
            // Served from the standing-query engine: the first view of
            // a spec registers it, later ones read the maintained links.
            // An out-of-range radius or a malformed lang is a 400.
            match platform.view_album(&spec) {
                Ok(links) => Response::html(render_album(monument, &links)),
                Err(e) => Response::bad_request(&e.to_string()),
            }
        }
        path if path.starts_with("/picture/") => {
            let Ok(pid) = path["/picture/".len()..].parse::<i64>() else {
                return Response::bad_request("bad picture id");
            };
            render_picture(platform, pid)
                .map(Response::html)
                .unwrap_or_else(|| Response::not_found(&format!("picture {pid}")))
        }
        path if path.starts_with("/about/") => {
            let Ok(pid) = path["/about/".len()..].parse::<i64>() else {
                return Response::bad_request("bad picture id");
            };
            let iri = Platform::picture_iri(pid);
            match MashupService::standard().about(platform.store(), &iri) {
                Ok(mashup) => Response::html(render_mashup(pid, &mashup)),
                Err(e) => Response::bad_request(&e.to_string()),
            }
        }
        "/metrics" => {
            // Refresh point-in-time gauges (store size, cache entries,
            // WAL depth) right before scraping, then expose everything
            // in Prometheus text format.
            platform.publish_gauges();
            Response::text(
                lodify_obs::prometheus::CONTENT_TYPE,
                platform.obs().render_prometheus(),
            )
        }
        "/ops" => Response::text("text/plain; charset=utf-8", render_ops(platform)),
        path if path.starts_with("/trace/") => {
            let id_text = &path["/trace/".len()..];
            let Ok(trace_id) = u64::from_str_radix(id_text, 16) else {
                return Response::bad_request("bad trace id (expected hex)");
            };
            match platform.obs().traces().render(trace_id) {
                Some(tree) => Response::text("text/plain; charset=utf-8", tree),
                None => Response::not_found(&format!("trace {trace_id:016x}")),
            }
        }
        "/subscriptions" => {
            Response::text("text/plain; charset=utf-8", render_subscriptions(platform))
        }
        other => Response::not_found(other),
    }
}

/// Routes a request with full observability: issues a request id,
/// wraps the handler in a `web.request` root span, times it into the
/// `web.request` histogram (tagging the bucket with the trace id as an
/// exemplar), and appends an [`lodify_obs::AccessEntry`] to the
/// platform's access log. The ids are echoed back on the response
/// (`X-Request-Id`, `X-Trace-Id`). The span is the thread's ambient
/// parent while routing, so spans the layers below start
/// (`album.view`, `sparql`) are its children. [`route`] stays pure for
/// tests that don't care about the plumbing.
///
/// When [`Platform::enable_admission`] ran, admission is decided
/// *before* routing — a shed request costs a classification and an
/// atomic load, never a parse or a store touch. Quota rejections
/// return 429, overload sheds 503; both still get a request id and an
/// access-log entry so storms stay visible. Operational endpoints
/// (`/ops`, `/metrics`, `/trace/…`) are never shed. This in-process
/// entry point takes its own admission slot for the duration of the
/// call; over a socket the slot is the connection's place in the
/// server's queue, taken at accept.
pub fn handle_request(platform: &Platform, request: &Request) -> Response {
    let slot = platform.admission().map(|admission| admission.enter());
    respond(platform, request, slot).0
}

/// [`handle_request`] on an admission slot the caller already holds
/// (`None` when admission is off). Hands the slot back with the
/// response unless the request was shed, so a socket caller can keep
/// it until the response is written.
fn respond(
    platform: &Platform,
    request: &Request,
    slot: Option<Permit>,
) -> (Response, Option<Permit>) {
    use crate::admission::{AdmissionDecision, ShedClass};
    let obs = platform.obs();
    let request_id = obs.access_log().begin();
    let started = obs.metrics().now_micros();
    let elapsed = || obs.metrics().now_micros().saturating_sub(started);
    let logged = |mut response: Response, duration_us: u64| {
        obs.access_log().record(lodify_obs::AccessEntry {
            request_id,
            target: request_target(request),
            status: response.status,
            duration_us,
        });
        response.request_id = Some(request_id);
        response
    };

    let shed = |counter: &str, response: Response| {
        obs.metrics().incr(counter);
        (logged(response, elapsed()), None)
    };
    let permit = match (platform.admission(), slot) {
        (Some(admission), Some(slot)) => {
            let class = ShedClass::classify(&request.path);
            match admission.admit_held(request.tenant.as_deref(), class, slot) {
                AdmissionDecision::Admit(held) => Some(held),
                AdmissionDecision::RejectQuota => {
                    let tenant = request.tenant.as_deref().unwrap_or("anon");
                    return shed("web.shed.quota", Response::too_many_requests(tenant));
                }
                AdmissionDecision::RejectOverload => {
                    return shed("web.shed.overload", Response::service_unavailable());
                }
            }
        }
        _ => None,
    };

    let span = obs.tracer().start("web.request");
    let trace_id = span.context().map(|c| c.trace_id);
    let entered = span.enter();
    let mut response = route(platform, request);
    drop(entered);
    // A live span mirrors its duration (exemplar included) into the
    // `web.request` histogram on finish; observe manually only when
    // tracing is off so the histogram never double-counts.
    span.finish();
    let elapsed_us = elapsed();
    if trace_id.is_none() {
        obs.metrics().observe("web.request", elapsed_us);
    }
    response.trace_id = trace_id;
    (logged(response, elapsed_us), permit)
}

/// Reconstructs `path?k=v&…` for the access log (parameters in sorted
/// order — [`Request`] keeps them in a map).
fn request_target(request: &Request) -> String {
    if request.query.is_empty() {
        return request.path.clone();
    }
    let params: Vec<String> = request
        .query
        .iter()
        .map(|(k, v)| format!("{}={}", url_encode(k), url_encode(v)))
        .collect();
    format!("{}?{}", request.path, params.join("&"))
}

// ---------------------------------------------------------------------
// rendering
// ---------------------------------------------------------------------

/// HTML-escapes text content.
pub fn escape_html(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn page(title: &str, body: &str, mobile: bool) -> String {
    let class = if mobile { "mobile" } else { "desktop" };
    format!(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>{}</title></head>\
         <body class=\"{class}\"><h1>{}</h1>{body}</body></html>",
        escape_html(title),
        escape_html(title),
    )
}

fn render_home(mobile: bool) -> String {
    // Fig. 2: the search box; the mobile variant notes the location API.
    let hint = if mobile {
        "<p class=\"geo\">using your location to filter results</p>"
    } else {
        ""
    };
    page(
        "TeamLife — semantic search",
        &format!(
            "{hint}<form action=\"/search\"><input name=\"q\" placeholder=\"search places, monuments, people\">\
             <button>search</button></form>"
        ),
        mobile,
    )
}

fn render_suggestions(q: &str, suggestions: &[crate::search::Suggestion], mobile: bool) -> String {
    // Fig. 3: candidate resources for the typed prefix.
    let mut items = String::new();
    for s in suggestions {
        items.push_str(&format!(
            "<li><a href=\"/resource?iri={}\">{}</a> <span class=\"iri\">{}</span></li>",
            url_encode(s.resource.as_str()),
            escape_html(&s.label),
            escape_html(s.resource.as_str()),
        ));
    }
    page(
        &format!("candidates for “{q}”"),
        &format!("<ul class=\"candidates\">{items}</ul>"),
        mobile,
    )
}

fn render_content_list(iri: &str, hits: &[crate::search::ContentHit], mobile: bool) -> String {
    // Fig. 4: thumbnails + links for the selected resource, About on top.
    let pid_of = |hit: &crate::search::ContentHit| -> Option<i64> {
        hit.content.as_str().rsplit('/').next()?.parse().ok()
    };
    let about = hits
        .first()
        .and_then(pid_of)
        .map(|pid| format!("<a class=\"about\" href=\"/about/{pid}\">About</a>"))
        .unwrap_or_default();
    let mut items = String::new();
    for hit in hits {
        let title = hit.title.as_deref().unwrap_or("(untitled)");
        let link = hit.link.as_deref().unwrap_or("#");
        let detail = pid_of(hit)
            .map(|pid| format!("<a href=\"/picture/{pid}\">details</a>"))
            .unwrap_or_default();
        items.push_str(&format!(
            "<li><img src=\"{}\" alt=\"\"> {} {detail}</li>",
            escape_html(link),
            escape_html(title),
        ));
    }
    page(
        &format!("content for {iri}"),
        &format!("{about}<ul class=\"content\">{items}</ul>"),
        mobile,
    )
}

fn render_album(monument: &str, links: &[String]) -> String {
    let mut items = String::new();
    for link in links {
        items.push_str(&format!(
            "<li><img src=\"{}\" alt=\"\"></li>",
            escape_html(link)
        ));
    }
    page(
        &format!("virtual album — near {monument}"),
        &format!("<ul class=\"album\">{items}</ul>"),
        false,
    )
}

/// The §1.1 friendly-format tag rendering: context triple tags become
/// readable phrases, plain user tags stay as-is and are shown apart.
pub fn friendly_tag(tag: &lodify_tripletags::TripleTag) -> String {
    match (tag.namespace.as_str(), tag.predicate.as_str()) {
        ("address", "city") => format!("in {}", tag.value),
        ("address", "street") => format!("on {}", tag.value),
        ("address", "country") => tag.value.clone(),
        ("people", "fn") => format!("with {}", tag.value),
        ("people", "user") => format!("with @{}", tag.value),
        ("place", "is") => format!("a {} place", tag.value),
        ("place", "label") => format!("at “{}”", tag.value),
        ("cell", "cgi") => format!("cell {}", tag.value),
        ("calendar", "event") => format!("during “{}”", tag.value),
        ("geo", "lat") | ("geo", "long") => format!("{}: {}", tag.predicate, tag.value),
        ("geonames", "id") => format!("geonames #{}", tag.value),
        _ => tag.to_wire(),
    }
}

fn render_picture(platform: &Platform, pid: i64) -> Option<String> {
    let pictures = platform
        .db()
        .table(lodify_relational::coppermine::PICTURES)
        .ok()?;
    let row = pictures.get(pid)?;
    let title = row[3].as_text().unwrap_or_default();

    let mut user_tags = String::new();
    let mut context_tags = String::new();
    for tag in platform.tags().tags_of(pid) {
        match tag {
            Tag::Plain(word) => {
                user_tags.push_str(&format!(
                    "<span class=\"tag\">{}</span> ",
                    escape_html(word)
                ));
            }
            Tag::Triple(tt) => {
                context_tags.push_str(&format!(
                    "<span class=\"ctx\">{}</span> ",
                    escape_html(&friendly_tag(tt))
                ));
            }
        }
    }
    let annotations = platform
        .annotations()
        .get(&pid)
        .map(|a| {
            a.resources()
                .iter()
                .map(|r| {
                    format!(
                        "<li><a href=\"/resource?iri={}\">{}</a></li>",
                        url_encode(r.as_str()),
                        escape_html(r.local_name()),
                    )
                })
                .collect::<String>()
        })
        .unwrap_or_default();

    Some(page(
        title,
        &format!(
            "<img src=\"http://beta.teamlife.it/media/{pid}.jpg\" alt=\"\">\
             <p class=\"user-tags\">{user_tags}</p>\
             <p class=\"context-tags\">{context_tags}</p>\
             <a href=\"/about/{pid}\">About</a>\
             <ul class=\"annotations\">{annotations}</ul>"
        ),
        false,
    ))
}

/// The `/subscriptions` page: the registered standing albums and, per
/// SparqlPuSH subscriber, outbox head vs shipped vs applied cursor
/// plus breaker state — enough to see at a glance who is lagging and
/// why. Plain text, like `/ops`.
fn render_subscriptions(platform: &Platform) -> String {
    use std::fmt::Write as _;
    let live = platform.live();
    let engine = live.engine();
    let mut out = String::new();
    let _ = writeln!(out, "live albums ({}):", engine.len());
    for id in engine.ids() {
        let spec = engine.spec(id);
        let mut shape = format!("\"{}\"@{}", spec.monument_label, spec.label_lang);
        if let Some(friend) = &spec.friend_of {
            let _ = write!(shape, " friends-of={friend}");
        }
        if spec.order_by_rating {
            shape.push_str(" rated");
        }
        if let Some(n) = spec.limit {
            let _ = write!(shape, " limit={n}");
        }
        let _ = writeln!(
            out,
            "  album {id} {shape} members={}",
            engine.links(id).len()
        );
    }
    // Released before `live.ops()` takes the read lock again.
    drop(engine);
    let hub = live.hub();
    let _ = writeln!(out, "subscribers ({}):", hub.len());
    for (callback, album, head, shipped, cursor, breaker) in hub.rows() {
        let cursor = cursor.map_or_else(|| "down".to_string(), |c| c.to_string());
        let _ = writeln!(
            out,
            "  {callback} album={album} head={head} shipped={shipped} \
             cursor={cursor} breaker={breaker}"
        );
    }
    let ops = live.ops();
    let _ = writeln!(
        out,
        "push: delivered={} parked={} redelivered={} lag={} dlq={}",
        ops.push.delivered, ops.push.parked, ops.push.redelivered, ops.push.lag, ops.push.dlq_depth
    );
    out
}

/// The `/ops` page: the resilience snapshot, recent traces rendered as
/// indented span trees, slow-query aggregates and the access-log tail.
/// Plain text on purpose — it is read over `curl` during incidents.
fn render_ops(platform: &Platform) -> String {
    use std::fmt::Write as _;
    let obs = platform.obs();
    let snapshot = platform.ops_snapshot();
    let mut out = String::new();
    let status = if snapshot.is_degraded() {
        "DEGRADED"
    } else {
        "healthy"
    };
    let _ = writeln!(out, "status: {status}");
    let store = platform.store();
    let _ = writeln!(
        out,
        "store: {} triples @ epoch {} ({} shards)",
        store.len(),
        store.epoch(),
        store.shard_count()
    );
    let _ = writeln!(out, "{snapshot}");

    // With a `WebServer` on this platform: is latency queueing or work?
    if let Some(busy) = obs.metrics().gauge("web.workers.busy") {
        let _ = write!(out, "serving: workers busy={busy}");
        for (label, name) in [
            ("queue_wait", "web.queue_wait"),
            ("handle", "web.request"),
            ("write", "web.write"),
        ] {
            let quantile = |q: f64| {
                obs.metrics()
                    .histogram(name)
                    .and_then(|h| h.quantile(q))
                    .unwrap_or(0.0)
            };
            let _ = write!(
                out,
                " {label} p50={:.0}us p99={:.0}us",
                quantile(0.5),
                quantile(0.99)
            );
        }
        out.push('\n');
    }

    let traces = obs.tracer().recent_traces(8);
    let _ = writeln!(out, "\nrecent traces ({}):", traces.len());
    for trace in &traces {
        // Spans arrive in completion order (children before parents);
        // indent by chasing parent links, and show start order.
        let parents: BTreeMap<u64, Option<u64>> =
            trace.iter().map(|s| (s.span_id, s.parent_id)).collect();
        let _ = writeln!(
            out,
            "  trace {:016x}",
            trace.first().map_or(0, |s| s.trace_id)
        );
        let mut ordered: Vec<_> = trace.iter().collect();
        ordered.sort_by_key(|s| (s.start_us, s.span_id));
        for span in ordered {
            let mut d = 0usize;
            let mut cursor = span.parent_id;
            while let Some(p) = cursor {
                d += 1;
                cursor = parents.get(&p).copied().flatten();
            }
            let _ = writeln!(
                out,
                "  {}{} {}us",
                "  ".repeat(d + 1),
                span.name,
                span.duration_us()
            );
        }
    }

    // The flight recorder: the cross-node trace store's summary of
    // the most recent assembled traces, the first thing to read from
    // a crash dump (the full tree of any listed id is `/trace/<id>`).
    out.push('\n');
    out.push_str(&obs.traces().flight_summary(8));

    let slow = obs.slow_queries().entries();
    let _ = writeln!(
        out,
        "\nslow queries (threshold {}us, {} fingerprints, {} evicted):",
        obs.slow_queries().threshold_us(),
        slow.len(),
        obs.slow_queries().evictions()
    );
    for (fingerprint, entry) in slow.iter().take(16) {
        let plan = match (&entry.plan_cache, entry.plan_id) {
            (Some(outcome), Some(id)) => format!(" plan_cache={outcome} plan_id={id:016x}"),
            (Some(outcome), None) => format!(" plan_cache={outcome}"),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "  count={} mean={}us max={}us{}  {}",
            entry.count,
            entry.mean_us(),
            entry.max_us,
            plan,
            fingerprint
        );
        for line in entry.breakdown.iter().take(8) {
            let _ = writeln!(out, "    {line}");
        }
    }

    let accesses = obs.access_log().recent(16);
    let _ = writeln!(out, "\nrecent requests ({}):", accesses.len());
    for entry in &accesses {
        let _ = writeln!(
            out,
            "  #{} {} {} {}us",
            entry.request_id, entry.status, entry.target, entry.duration_us
        );
    }
    out
}

fn render_mashup(pid: i64, mashup: &crate::mashup::MashupResult) -> String {
    let mut body = String::new();
    if let Some((city, abstract_)) = &mashup.city {
        body.push_str(&format!(
            "<section class=\"city\"><h2>{}</h2><p>{}</p></section>",
            escape_html(city),
            escape_html(abstract_)
        ));
    }
    body.push_str("<section class=\"restaurants\"><h2>Restaurants</h2><ul>");
    for r in &mashup.restaurants {
        body.push_str(&format!(
            "<li>{}{}</li>",
            escape_html(&r.label),
            r.detail
                .as_deref()
                .map(|d| format!(" — <a href=\"{}\">{}</a>", escape_html(d), escape_html(d)))
                .unwrap_or_default()
        ));
    }
    body.push_str("</ul></section><section class=\"tourism\"><h2>Attractions</h2><ul>");
    for a in &mashup.attractions {
        body.push_str(&format!("<li>{}</li>", escape_html(&a.label)));
    }
    body.push_str("</ul></section><section class=\"ugc\"><h2>Nearby content</h2><ul>");
    for link in &mashup.related_content {
        body.push_str(&format!(
            "<li><img src=\"{}\" alt=\"\"></li>",
            escape_html(link)
        ));
    }
    body.push_str("</ul></section>");
    page(&format!("About picture {pid}"), &body, false)
}

// ---------------------------------------------------------------------
// the HTTP server
// ---------------------------------------------------------------------

/// HTTP server tuning. The paper-era seed hardcoded a 2-second read
/// timeout deep inside the connection handler; both deadlines are now
/// configurable (and a write timeout exists at all), with timeouts
/// surfacing as typed [`PlatformError::Timeout`] values.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How long a connection may take to deliver its request.
    pub read_timeout: std::time::Duration,
    /// How long writing the response may take (slow client).
    pub write_timeout: std::time::Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: std::time::Duration::from_secs(2),
            write_timeout: std::time::Duration::from_secs(2),
        }
    }
}

/// Longest request line the server buffers, terminator included.
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most header lines the server reads.
const MAX_HEADER_LINES: usize = 64;
/// Most header bytes the server buffers, over all lines.
const MAX_HEADER_BYTES: usize = 32 * 1024;

/// An accepted connection waiting for, or being served by, a worker.
struct Conn {
    /// Shared with [`ConnQueue`] while a worker serves it, so that
    /// closing the queue can end a pending read.
    stream: Arc<TcpStream>,
    /// When the acceptor queued it (µs on the platform's obs clock).
    accepted_us: u64,
    /// The admission slot this connection has held since it was
    /// accepted; `None` when admission is off.
    slot: Option<Permit>,
}

struct QueueState {
    pending: VecDeque<Conn>,
    /// Per worker, the stream it is serving.
    serving: Vec<Option<Arc<TcpStream>>>,
    closed: bool,
}

/// The bounded FIFO between the acceptor and the workers.
struct ConnQueue {
    state: Mutex<QueueState>,
    bound: usize,
    /// Signalled when a connection is queued, and on close.
    ready: Condvar,
    /// Signalled when a connection is taken, and on close.
    space: Condvar,
}

impl ConnQueue {
    fn new(bound: usize, workers: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                serving: vec![None; workers],
                closed: false,
            }),
            // `hard_depth` may be configured to 0 (shed everything);
            // the queue still needs one slot to hand connections over.
            bound: bound.max(1),
            ready: Condvar::new(),
            space: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        // Every update leaves the state valid, so a worker that
        // panicked elsewhere does not take the queue down with it.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues `conn`, waiting for space while the queue is full.
    /// Returns `false` (dropping `conn`) once the queue is closed.
    fn push(&self, conn: Conn) -> bool {
        let mut state = self.lock();
        while state.pending.len() >= self.bound && !state.closed {
            state = self.space.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        if state.closed {
            return false;
        }
        state.pending.push_back(conn);
        self.ready.notify_one();
        true
    }

    /// Marks `worker` idle, then waits for its next connection; `None`
    /// once the queue is closed.
    fn pop(&self, worker: usize) -> Option<Conn> {
        let mut state = self.lock();
        state.serving[worker] = None;
        loop {
            if state.closed {
                return None;
            }
            if let Some(conn) = state.pending.pop_front() {
                state.serving[worker] = Some(Arc::clone(&conn.stream));
                self.space.notify_one();
                return Some(conn);
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Closes the queue: connections still waiting are dropped
    /// unanswered, and the read side of every connection being served
    /// is shut down, so a worker waiting on a silent client sees EOF
    /// at once while one already routing still writes its response.
    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        state.pending.clear();
        for stream in state.serving.iter().flatten() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        self.ready.notify_all();
        self.space.notify_all();
    }
}

/// A running server handle.
pub struct WebServer {
    addr: std::net::SocketAddr,
    queue: Arc<ConnQueue>,
    handle: Option<std::thread::JoinHandle<()>>,
    telemetry: lodify_resilience::Telemetry,
}

impl WebServer {
    /// Serves `platform` on `127.0.0.1:port` (0 = ephemeral) in
    /// background threads with default timeouts. The platform is
    /// shared read-only.
    pub fn start(platform: Arc<Platform>, port: u16) -> Result<WebServer, PlatformError> {
        WebServer::start_with_config(platform, port, ServerConfig::default())
    }

    /// Serves `platform` with explicit timeout configuration.
    ///
    /// The pool is sized from the host, not configured: one worker
    /// per available core, at least 2 (so one slow request never
    /// stalls the server) and at most 8. The queue holds as many
    /// connections as admission's `hard_depth` (the default's when
    /// admission is off): past that depth every request is shed, so a
    /// longer queue would only hold connections waiting for a 503.
    pub fn start_with_config(
        platform: Arc<Platform>,
        port: u16,
        config: ServerConfig,
    ) -> Result<WebServer, PlatformError> {
        let listener = TcpListener::bind(("127.0.0.1", port))
            .map_err(|e| PlatformError::Invalid(format!("bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| PlatformError::Invalid(e.to_string()))?;
        let workers = std::thread::available_parallelism()
            .map_or(2, |n| n.get())
            .clamp(2, 8);
        let bound = platform
            .admission()
            .map_or_else(crate::admission::AdmissionConfig::default, |a| *a.config())
            .hard_depth;
        let queue = Arc::new(ConnQueue::new(bound, workers));
        // The platform's registry, so the counters below also show on
        // `/metrics`; written directly, so they count whether or not
        // observability is enabled.
        let telemetry = platform.obs().metrics().telemetry().clone();
        let serving = Serving {
            platform,
            config,
            queue: Arc::clone(&queue),
            busy: Mutex::new(0),
        };
        let handle = std::thread::spawn(move || {
            let serving = &serving;
            std::thread::scope(|scope| {
                for worker in 0..workers {
                    scope.spawn(move || serving.work(worker));
                }
                serving.accept(&listener);
                // Reached on a fatal accept error too: release the workers.
                serving.queue.close();
            });
        });
        Ok(WebServer {
            addr,
            queue,
            handle: Some(handle),
            telemetry,
        })
    }

    /// The platform's counter registry, where the server counts
    /// `web.connections` and how each one ended: `web.responses`,
    /// `web.timeouts`, `web.errors`, `web.connections.empty`; plus
    /// `web.rejected.oversize` for heads past the size limits.
    pub fn telemetry(&self) -> &lodify_resilience::Telemetry {
        &self.telemetry
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops the server and joins its threads: connections still
    /// queued are dropped, requests already being routed finish.
    /// Re-raises the panic of a worker that died.
    pub fn stop(mut self) {
        if let Err(panic) = self.shutdown() {
            std::panic::resume_unwind(panic);
        }
    }

    fn shutdown(&mut self) -> std::thread::Result<()> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        self.queue.close();
        // The acceptor is blocked in `accept()`: one connection wakes
        // it, and it drops that connection uncounted because the queue
        // is closed. If this connect fails the backlog is full, so the
        // acceptor is about to wake anyway.
        let _ = TcpStream::connect_timeout(&self.addr, std::time::Duration::from_millis(200));
        handle.join()
    }
}

impl Drop for WebServer {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// What the acceptor and the workers share.
struct Serving {
    platform: Arc<Platform>,
    config: ServerConfig,
    queue: Arc<ConnQueue>,
    /// Workers serving a connection right now (the
    /// `web.workers.busy` gauge, kept exact by updating both under
    /// this lock).
    busy: Mutex<u64>,
}

/// How a connection that did not fail ended.
enum Served {
    /// A response was written.
    Answered,
    /// The peer closed without sending a byte.
    Empty,
}

/// What [`read_head`] found on a connection.
#[derive(Debug, PartialEq)]
enum Head {
    /// End of stream before the first byte.
    Empty,
    /// The request line or the headers exceed the size limits.
    Oversize,
    /// A request line (unparsed) and its headers.
    Request {
        line: String,
        headers: Vec<(String, String)>,
    },
}

impl Serving {
    /// Where the connection counters go: see [`WebServer::telemetry`].
    fn telemetry(&self) -> &lodify_resilience::Telemetry {
        self.platform.obs().metrics().telemetry()
    }

    /// The accept loop: takes the connection's admission slot, stamps
    /// it and queues it. Returns when the queue is closed or the
    /// listener fails.
    fn accept(&self, listener: &TcpListener) {
        use std::io::ErrorKind::{ConnectionAborted, Interrupted};
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                // A connection that died in the backlog, or a signal:
                // not the listener's fault.
                Err(e) if matches!(e.kind(), ConnectionAborted | Interrupted) => continue,
                Err(_) => return,
            };
            if self.queue.is_closed() {
                return;
            }
            self.telemetry().incr("web.connections");
            let conn = Conn {
                stream: Arc::new(stream),
                accepted_us: self.platform.obs().metrics().now_micros(),
                slot: self.platform.admission().map(|a| a.enter()),
            };
            if !self.queue.push(conn) {
                return;
            }
        }
    }

    /// A worker: serves queued connections until the queue closes.
    fn work(&self, worker: usize) {
        while let Some(conn) = self.queue.pop(worker) {
            self.step_busy(1);
            let counter = match self.serve(conn) {
                Ok(Served::Answered) => "web.responses",
                Ok(Served::Empty) => "web.connections.empty",
                Err(PlatformError::Timeout(_)) => "web.timeouts",
                Err(_) => "web.errors",
            };
            self.step_busy(-1);
            self.telemetry().incr(counter);
        }
    }

    fn step_busy(&self, delta: i64) {
        let mut busy = self.busy.lock().unwrap_or_else(|e| e.into_inner());
        *busy = busy.saturating_add_signed(delta);
        self.platform
            .obs()
            .metrics()
            .set_gauge("web.workers.busy", *busy);
    }

    /// One connection, start to finish: read the head, admit, route,
    /// write. `conn` — and with it the admission slot — is dropped on
    /// return, after the response is written.
    fn serve(&self, mut conn: Conn) -> Result<Served, PlatformError> {
        let platform: &Platform = &self.platform;
        let metrics = platform.obs().metrics();
        let dequeued_us = metrics.now_micros();
        let queue_us = dequeued_us.saturating_sub(conn.accepted_us);
        metrics.observe("web.queue_wait", queue_us);

        let mut stream: &TcpStream = &conn.stream;
        stream
            .set_nodelay(true)
            .map_err(|e| io_error("configuring socket", e))?;
        stream
            .set_read_timeout(Some(self.config.read_timeout))
            .map_err(|e| io_error("setting read timeout", e))?;
        stream
            .set_write_timeout(Some(self.config.write_timeout))
            .map_err(|e| io_error("setting write timeout", e))?;

        let head =
            read_head(&mut BufReader::new(stream)).map_err(|e| io_error("reading request", e))?;
        let (response, parsed_us) = match head {
            Head::Empty => return Ok(Served::Empty),
            Head::Oversize => {
                self.telemetry().incr("web.rejected.oversize");
                (Response::header_fields_too_large(), metrics.now_micros())
            }
            Head::Request { line, headers } => {
                let request = Request::parse(&line, &headers);
                let parsed_us = metrics.now_micros();
                let response = match request {
                    Some(request) => {
                        // An admitted request gets its slot back, to
                        // hold until the response is written.
                        let (response, slot) = respond(platform, &request, conn.slot.take());
                        conn.slot = slot;
                        response
                    }
                    None => Response::bad_request("unsupported request"),
                };
                (response, parsed_us)
            }
        };
        let handled_us = metrics.now_micros();

        let timing = server_timing(
            platform.obs(),
            queue_us,
            parsed_us.saturating_sub(dequeued_us),
            handled_us.saturating_sub(parsed_us),
            response.trace_id,
        );
        let written = stream.write_all(&response.to_bytes(Some(&timing)));
        metrics.observe("web.write", metrics.now_micros().saturating_sub(handled_us));
        written
            .map(|()| Served::Answered)
            .map_err(|e| io_error("writing response", e))
    }
}

/// The `Server-Timing` value for one socket request: the three stages
/// the worker timed before writing, in milliseconds, then — when the
/// request was traced — each direct child span of its `web.request`
/// span, in completion order.
fn server_timing(
    obs: &lodify_obs::Obs,
    queue_us: u64,
    parse_us: u64,
    handle_us: u64,
    trace_id: Option<u64>,
) -> String {
    use std::fmt::Write as _;
    let ms = |us: u64| us as f64 / 1e3;
    let mut out = format!(
        "queue;dur={:.3}, parse;dur={:.3}, handle;dur={:.3}",
        ms(queue_us),
        ms(parse_us),
        ms(handle_us)
    );
    let spans = trace_id
        .and_then(|id| obs.traces().spans(id))
        .unwrap_or_default();
    if let Some(root) = spans.iter().find(|s| s.parent_id.is_none()) {
        for child in spans.iter().filter(|s| s.parent_id == Some(root.span_id)) {
            let _ = write!(out, ", {};dur={:.3}", child.name, ms(child.duration_us()));
        }
    }
    out
}

/// Reads one `\n`-terminated line into `line`, buffering at most
/// `limit + 1` bytes; `Ok(false)` when the line is longer than `limit`
/// bytes (terminator included). End of stream ends a line too.
fn read_line_bounded(
    reader: &mut impl BufRead,
    limit: usize,
    line: &mut Vec<u8>,
) -> std::io::Result<bool> {
    line.clear();
    reader
        .by_ref()
        .take(limit as u64 + 1)
        .read_until(b'\n', line)?;
    Ok(line.len() <= limit)
}

/// Reads a request head — request line, then headers up to the blank
/// line or the end of the stream — within [`MAX_REQUEST_LINE`],
/// [`MAX_HEADER_LINES`] and [`MAX_HEADER_BYTES`]. Bytes that are not
/// UTF-8 are replaced, not refused: the request parser decides.
fn read_head(reader: &mut impl BufRead) -> std::io::Result<Head> {
    let mut raw = Vec::new();
    if !read_line_bounded(reader, MAX_REQUEST_LINE, &mut raw)? {
        return Ok(Head::Oversize);
    }
    if raw.is_empty() {
        return Ok(Head::Empty);
    }
    let line = String::from_utf8_lossy(&raw).trim_end().to_string();
    let mut headers = Vec::new();
    let mut budget = MAX_HEADER_BYTES;
    for _ in 0..=MAX_HEADER_LINES {
        if !read_line_bounded(reader, budget, &mut raw)? {
            return Ok(Head::Oversize);
        }
        budget -= raw.len();
        let text = String::from_utf8_lossy(&raw);
        let text = text.trim_end();
        if text.is_empty() {
            return Ok(Head::Request { line, headers });
        }
        if let Some((name, value)) = text.split_once(':') {
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
    }
    Ok(Head::Oversize)
}

/// Classifies an I/O error: deadline expiries become the typed
/// [`PlatformError::Timeout`], everything else stays generic.
fn io_error(context: &str, e: std::io::Error) -> PlatformError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            PlatformError::Timeout(format!("{context} after deadline: {e}"))
        }
        _ => PlatformError::Invalid(format!("{context}: {e}")),
    }
}

/// Percent-decodes a URL component (`+` is a space).
pub fn url_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match bytes.get(i + 1..i + 3).and_then(hex_byte) {
                Some(byte) => {
                    out.push(byte);
                    i += 3;
                }
                None => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The byte two hex digits spell; `None` for anything else.
fn hex_byte(digits: &[u8]) -> Option<u8> {
    let value = |digit: u8| (digit as char).to_digit(16);
    Some((value(digits[0])? * 16 + value(digits[1])?) as u8)
}

/// Percent-encodes a URL component.
pub fn url_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for byte in text.bytes() {
        match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(byte as char)
            }
            _ => out.push_str(&format!("%{byte:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_relational::WorkloadConfig;

    fn platform() -> Platform {
        Platform::bootstrap(WorkloadConfig::small(31)).unwrap()
    }

    fn get(platform: &Platform, target: &str, mobile: bool) -> Response {
        let headers = if mobile {
            vec![(
                "User-Agent".to_string(),
                "Mozilla/5.0 (iPhone) Mobile".to_string(),
            )]
        } else {
            vec![(
                "User-Agent".to_string(),
                "Mozilla/5.0 (X11; Linux)".to_string(),
            )]
        };
        let request = Request::parse(&format!("GET {target} HTTP/1.1"), &headers).unwrap();
        route(platform, &request)
    }

    #[test]
    fn request_parsing() {
        let r = Request::parse("GET /search?q=Tur&limit=5 HTTP/1.1", &[]).unwrap();
        assert_eq!(r.path, "/search");
        assert_eq!(r.query.get("q").map(String::as_str), Some("Tur"));
        assert_eq!(r.query.get("limit").map(String::as_str), Some("5"));
        assert!(!r.mobile);
        assert!(r.tenant.is_none());
        // Tenant: X-Tenant header wins over the query parameter.
        let r = Request::parse(
            "GET /?tenant=query HTTP/1.1",
            &[("X-Tenant".to_string(), "header".to_string())],
        )
        .unwrap();
        assert_eq!(r.tenant.as_deref(), Some("header"));
        let r = Request::parse("GET /?tenant=query HTTP/1.1", &[]).unwrap();
        assert_eq!(r.tenant.as_deref(), Some("query"));
        assert!(Request::parse("POST / HTTP/1.1", &[]).is_none());
        // plus + percent decoding
        let r = Request::parse("GET /search?q=Mole+Antonelliana%21 HTTP/1.1", &[]).unwrap();
        assert_eq!(
            r.query.get("q").map(String::as_str),
            Some("Mole Antonelliana!")
        );
    }

    #[test]
    fn mobile_detection_switches_rendering() {
        let p = platform();
        let desktop = get(&p, "/", false);
        let mobile = get(&p, "/", true);
        assert!(desktop.body.contains("class=\"desktop\""));
        assert!(mobile.body.contains("class=\"mobile\""));
        assert!(mobile.body.contains("using your location"));
    }

    #[test]
    fn search_route_lists_candidates() {
        let p = platform();
        let resp = get(&p, "/search?q=Turi", false);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("Turin"), "{}", resp.body);
        assert!(resp.body.contains("/resource?iri="));
        // Missing q → 400.
        assert_eq!(get(&p, "/search", false).status, 400);
    }

    #[test]
    fn resource_route_lists_content_with_about_button() {
        let p = platform();
        let iri = url_encode("http://dbpedia.org/resource/Mole_Antonelliana");
        let resp = get(&p, &format!("/resource?iri={iri}"), false);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("class=\"about\"") || resp.body.contains("class=\"content\""));
    }

    #[test]
    fn picture_route_separates_tag_kinds() {
        let p = platform();
        let pid = p.picture_ids()[0];
        let resp = get(&p, &format!("/picture/{pid}"), false);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("user-tags"));
        assert!(resp.body.contains("context-tags"));
        assert_eq!(get(&p, "/picture/999999", false).status, 404);
        assert_eq!(get(&p, "/picture/abc", false).status, 400);
    }

    #[test]
    fn album_route_runs_q1() {
        let p = platform();
        let resp = get(
            &p,
            "/album?monument=Mole+Antonelliana&lang=it&radius=0.3",
            false,
        );
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("virtual album"));
    }

    #[test]
    fn album_route_serves_repeats_from_the_cache() {
        let p = platform();
        let target = "/album?monument=Mole+Antonelliana&lang=it&radius=0.3";
        let cold = get(&p, target, false);
        let warm = get(&p, target, false);
        assert_eq!(cold.body, warm.body, "cached view must render identically");
        let stats = p.album_cache_stats();
        assert_eq!(stats.misses, 1, "first request solves the album");
        assert_eq!(stats.hits, 1, "second request is a cache hit");
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn album_route_rejects_radii_and_language_tags_it_cannot_serve() {
        let p = platform();
        for query in [
            "radius=NaN",
            "radius=inf",
            "radius=-inf",
            "radius=1e300",
            "radius=0",
            "radius=-0.3",
            "radius=20.5",
            "radius=far",
            "lang=it%20x",
            "lang=",
            "lang=1t",
        ] {
            let target = format!("/album?monument=Mole+Antonelliana&{query}");
            assert_eq!(get(&p, &target, false).status, 400, "{target}");
        }
        assert_eq!(
            p.album_cache_stats().entries,
            0,
            "nothing reached the engine"
        );
        let edge = "/album?monument=Mole+Antonelliana&lang=IT&radius=20";
        assert_eq!(get(&p, edge, false).status, 200);
    }

    #[test]
    fn metrics_route_renders_the_golden_exposition() {
        use crate::platform::Upload;
        use lodify_context::Gazetteer;

        let mut p = platform();
        let gaz = Gazetteer::global();
        let mole = gaz.poi("Mole_Antonelliana").unwrap();
        p.upload(Upload {
            user_id: 1,
            title: "Tramonto alla Mole".into(),
            tags: vec!["torino".into()],
            ts: 1_320_500_000,
            gps: Some(mole.point(gaz)),
            poi: None,
        })
        .unwrap();
        p.query("SELECT ?s WHERE { ?s a sioct:MicroblogPost . } LIMIT 3")
            .unwrap();
        let _ = get(
            &p,
            "/album?monument=Mole+Antonelliana&lang=it&radius=0.3",
            false,
        );

        let resp = get(&p, "/metrics", false);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, lodify_obs::prometheus::CONTENT_TYPE);
        // Golden structure: one TYPE line per family, histogram series
        // with cumulative buckets, +Inf, sum and count.
        for line in [
            "# TYPE lodify_upload_accepted_total counter",
            "# TYPE lodify_sparql_queries_total counter",
            "# TYPE lodify_store_triples gauge",
            "# TYPE lodify_upload_seconds histogram",
            "# TYPE lodify_sparql_seconds histogram",
            "# TYPE lodify_album_view_seconds histogram",
            "lodify_upload_accepted_total 1",
            "lodify_upload_seconds_bucket{le=\"+Inf\"} 1",
            "lodify_upload_seconds_count 1",
            "lodify_sparql_parse_seconds_count",
            "lodify_sparql_eval_seconds_count",
            "lodify_upload_relational_seconds_count 1",
            "lodify_upload_semanticize_seconds_count 1",
            "lodify_upload_annotate_seconds_count 1",
            "lodify_album_cache_misses_total 1",
        ] {
            assert!(
                resp.body.contains(line),
                "missing {line:?} in:\n{}",
                resp.body
            );
        }
    }

    #[test]
    fn ops_route_reports_a_tripped_breaker() {
        use lodify_lod::annotator::{Annotator, AnnotatorConfig};
        use lodify_lod::broker::BrokerResilienceConfig;
        use lodify_lod::resolvers::{DbpediaResolver, FaultInjectedResolver, GeonamesResolver};
        use lodify_lod::{SemanticBroker, SemanticFilter};
        use lodify_resilience::{FaultPlan, VirtualClock};

        let mut p = platform();
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("resolver:dbpedia", 0, u64::MAX)
            .build(clock.clone());
        let broker = SemanticBroker::new(vec![
            Box::new(FaultInjectedResolver::new(DbpediaResolver, plan)),
            Box::new(GeonamesResolver),
        ])
        .with_resilience(clock, BrokerResilienceConfig::default());
        // Trip the dbpedia breaker before installing the annotator.
        let scratch = lodify_store::Store::new();
        for _ in 0..4 {
            broker.resolve(&scratch, &["torino".to_string()], "torino", Some("en"));
        }
        p.set_annotator(Annotator::new(
            broker,
            SemanticFilter::standard(),
            AnnotatorConfig::default(),
        ));

        let resp = get(&p, "/ops", false);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("status: DEGRADED"), "{}", resp.body);
        assert!(resp.body.contains("breaker=OPEN"), "{}", resp.body);
        assert!(resp.body.contains("slow queries"), "{}", resp.body);
        assert!(resp.body.contains("recent requests"), "{}", resp.body);
    }

    #[test]
    fn admission_rejects_and_ops_reports_shedding() {
        use crate::admission::AdmissionConfig;

        let mut p = platform();
        p.enable_admission(AdmissionConfig {
            tenant_rate_per_sec: 0.0,
            tenant_burst: 1.0,
            ..AdmissionConfig::default()
        });

        let send = |p: &Platform, target: &str, tenant: &str| {
            let headers = vec![("X-Tenant".to_string(), tenant.to_string())];
            let request = Request::parse(&format!("GET {target} HTTP/1.1"), &headers).unwrap();
            handle_request(p, &request)
        };

        // One token per tenant, no refill: second request is 429.
        assert_eq!(send(&p, "/", "alice").status, 200);
        let rejected = send(&p, "/", "alice");
        assert_eq!(rejected.status, 429);
        assert!(rejected.body.contains("alice"), "{}", rejected.body);
        assert!(rejected.request_id.is_some(), "sheds are logged");
        // Other tenants have their own bucket.
        assert_eq!(send(&p, "/", "bob").status, 200);
        // Critical endpoints bypass the quota entirely.
        assert_eq!(send(&p, "/ops", "alice").status, 200);

        let ops = send(&p, "/ops", "carol");
        assert!(ops.body.contains("admission"), "{}", ops.body);
        assert!(ops.body.contains("shed_quota=1"), "{}", ops.body);

        // Overload shedding: hard depth 0 sheds every non-critical
        // class with 503 and degrades the verdict.
        p.enable_admission(AdmissionConfig {
            shed_depth: 0,
            hard_depth: 0,
            ..AdmissionConfig::default()
        });
        assert_eq!(send(&p, "/", "alice").status, 503);
        assert_eq!(send(&p, "/album?monument=Mole", "alice").status, 503);
        let ops = send(&p, "/ops", "alice");
        assert_eq!(ops.status, 200, "operators can always see why");
        assert!(ops.body.contains("status: DEGRADED"), "{}", ops.body);
        assert!(ops.body.contains("shedding=true"), "{}", ops.body);
    }

    #[test]
    fn ops_route_reports_plan_cache_counters() {
        let p = platform();
        let query = "SELECT ?s WHERE { ?s <http://ex/p> ?o . }";
        p.query(query).unwrap();
        p.query(query).unwrap();
        let resp = get(&p, "/ops", false);
        assert!(resp.body.contains("plan cache"), "{}", resp.body);
        assert!(
            resp.body.contains("hits=1 misses=1"),
            "second run hits: {}",
            resp.body
        );
        assert!(!resp.body.contains("bypass"), "{}", resp.body);
        let metrics = get(&p, "/metrics", false);
        assert!(
            metrics.body.contains("lodify_sparql_plan_entries 1"),
            "{}",
            metrics.body
        );
    }

    #[test]
    fn ops_route_reports_replication_outbox_lag() {
        use crate::Upload;

        let mut p = platform();
        p.enable_emissions(crate::federation::Acct::parse("acct:oscar@node1.example").unwrap());
        p.upload(Upload {
            user_id: 1,
            title: "Tramonto alla Mole".into(),
            tags: vec!["torino".into()],
            ts: 1_320_500_000,
            gps: None,
            poi: None,
        })
        .unwrap();

        // The commit recorded one emission; nothing drained it yet.
        let resp = get(&p, "/ops", false);
        assert_eq!(resp.status, 200);
        assert!(
            resp.body.contains("replication lag=1 dlq=0"),
            "{}",
            resp.body
        );
        let metrics = get(&p, "/metrics", false);
        assert!(
            metrics.body.contains("lodify_replication_outbox_lag 1"),
            "{}",
            metrics.body
        );

        // Draining hands the committed UGC delta to a replication
        // agent and clears the lag.
        let emissions = p.drain_emissions();
        assert_eq!(emissions.len(), 1);
        assert!(!emissions[0].additions.is_empty());
        let resp = get(&p, "/ops", false);
        assert!(resp.body.contains("replication lag=0"), "{}", resp.body);
    }

    #[test]
    fn subscriptions_route_reports_live_albums_and_push_state() {
        use crate::Upload;

        let mut p = platform();
        let spec = crate::albums::AlbumSpec::near_monument("Mole Antonelliana", "it", 1.0);
        let album = p.live_register(&spec);
        p.live_subscribe("http://frame.local/push", album);
        p.upload(Upload {
            user_id: 1,
            title: "Tramonto alla Mole".into(),
            tags: vec!["torino".into()],
            ts: 1_320_500_000,
            gps: None,
            poi: None,
        })
        .unwrap();

        let resp = get(&p, "/subscriptions", false);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("live albums (1):"), "{}", resp.body);
        assert!(
            resp.body
                .contains("album 0 \"Mole Antonelliana\"@it members="),
            "{}",
            resp.body
        );
        assert!(
            resp.body.contains("http://frame.local/push album=0"),
            "{}",
            resp.body
        );
        assert!(resp.body.contains("breaker=closed"), "{}", resp.body);
        assert!(
            resp.body.contains("head=1 shipped=1 cursor=1"),
            "snapshot shipped on subscribe: {}",
            resp.body
        );

        // The snapshot on /ops now carries the live section too.
        let ops = get(&p, "/ops", false);
        assert!(ops.body.contains("live        albums=1"), "{}", ops.body);
        let metrics = get(&p, "/metrics", false);
        assert!(
            metrics.body.contains("lodify_live_albums 1"),
            "{}",
            metrics.body
        );
    }

    #[test]
    fn request_ids_propagate_into_the_access_log() {
        let p = platform();
        let request = Request::parse("GET /search?q=Turi HTTP/1.1", &[]).unwrap();
        let first = handle_request(&p, &request);
        let second = handle_request(&p, &request);
        let (a, b) = (first.request_id.unwrap(), second.request_id.unwrap());
        assert_ne!(a, b, "each request gets a fresh id");

        let recent = p.obs().access_log().recent(8);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].request_id, a);
        assert_eq!(recent[1].request_id, b);
        assert_eq!(recent[0].target, "/search?q=Turi");
        assert_eq!(recent[0].status, 200);
        // The handler latency feeds the web.request histogram too.
        let histogram = p.obs().metrics().histogram("web.request").unwrap();
        assert_eq!(histogram.count(), 2);
        // And the ids come back over the wire via X-Request-Id.
        let bad = Response::bad_request("x");
        assert_eq!(bad.request_id, None, "pure constructors carry no id");
    }

    #[test]
    fn unknown_route_404s() {
        let p = platform();
        assert_eq!(get(&p, "/nope", false).status, 404);
    }

    #[test]
    fn friendly_tags_read_like_phrases() {
        let tt = |s: &str| lodify_tripletags::TripleTag::parse(s).unwrap();
        assert_eq!(friendly_tag(&tt("address:city=Turin")), "in Turin");
        assert_eq!(
            friendly_tag(&tt("people:fn=Walter+Goix")),
            "with Walter Goix"
        );
        assert_eq!(friendly_tag(&tt("place:is=crowded")), "a crowded place");
        assert_eq!(
            friendly_tag(&tt("cell:cgi=460-0-9522-3661")),
            "cell 460-0-9522-3661"
        );
        // Unknown namespaces fall back to wire form.
        assert_eq!(friendly_tag(&tt("custom:x=1")), "custom:x=1");
    }

    #[test]
    fn url_encode_decode_round_trip() {
        for s in ["plain", "with space", "città+%&=?", "🙂"] {
            assert_eq!(url_decode(&url_encode(s)), s);
        }
    }

    #[test]
    fn url_decode_keeps_malformed_escapes_literal() {
        for (text, decoded) in [
            ("100%", "100%"),
            ("%4", "%4"),
            ("%zz", "%zz"),
            ("%+4", "% 4"),
            ("%4g%41", "%4gA"),
            ("a%20b%", "a b%"),
        ] {
            assert_eq!(url_decode(text), decoded, "{text}");
        }
    }

    #[test]
    fn html_escaping() {
        assert_eq!(
            escape_html("<b>&\"x\"</b>"),
            "&lt;b&gt;&amp;&quot;x&quot;&lt;/b&gt;"
        );
    }

    // -----------------------------------------------------------------
    // over real sockets
    // -----------------------------------------------------------------

    use lodify_obs::{Clock, WallClock};
    use lodify_resilience::DetRng;
    use std::time::Duration;

    /// A response as it came off the wire.
    struct Wire {
        status: u16,
        headers: Vec<(String, String)>,
        body: String,
    }

    impl Wire {
        /// `None` unless `raw` is one complete, well-formed response:
        /// status line, headers, `Connection: close`, and a body of
        /// exactly `Content-Length` bytes.
        fn parse(raw: &[u8]) -> Option<Wire> {
            let raw = std::str::from_utf8(raw).ok()?;
            let (head, body) = raw.split_once("\r\n\r\n")?;
            let mut lines = head.split("\r\n");
            let mut status_line = lines.next()?.splitn(3, ' ');
            if status_line.next()? != "HTTP/1.1" {
                return None;
            }
            let status = status_line.next()?.parse().ok()?;
            status_line.next().filter(|reason| !reason.is_empty())?;
            let headers: Vec<(String, String)> = lines
                .map(|line| {
                    let (name, value) = line.split_once(": ")?;
                    Some((name.to_string(), value.to_string()))
                })
                .collect::<Option<_>>()?;
            let wire = Wire {
                status,
                headers,
                body: body.to_string(),
            };
            let complete = wire.header("Content-Length")?.parse() == Ok(wire.body.len())
                && wire.header("Connection")? == "close";
            complete.then_some(wire)
        }

        fn header(&self, name: &str) -> Option<&str> {
            self.headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        }

        /// The `Server-Timing` entries, `(name, milliseconds)`.
        fn server_timing(&self) -> Vec<(String, f64)> {
            self.header("Server-Timing")
                .expect("Server-Timing header")
                .split(", ")
                .map(|entry| {
                    let (name, dur) = entry.split_once(";dur=").expect("name;dur=ms");
                    (name.to_string(), dur.parse().expect("milliseconds"))
                })
                .collect()
        }
    }

    /// Sends `bytes` on a fresh connection and returns what came back
    /// before the server closed (a reset after the response counts as
    /// a close, so write and read errors end the exchange quietly).
    fn exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let _ = stream.write_all(bytes);
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        raw
    }

    fn fetch(addr: std::net::SocketAddr, target: &str) -> Wire {
        let raw = exchange(
            addr,
            format!("GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes(),
        );
        Wire::parse(&raw)
            .unwrap_or_else(|| panic!("{target}: malformed {:?}", String::from_utf8_lossy(&raw)))
    }

    /// Polls until `done` holds; panics after ten seconds.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let clock = WallClock::new();
        while !done() {
            assert!(clock.now_micros() < 10_000_000, "timed out waiting: {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// How the `accepted` connections made to the server so far ended,
    /// as `[responses, empty, timeouts, errors]`, once all of them have.
    fn settled(server: &WebServer, accepted: u64) -> [u64; 4] {
        let counts = || {
            [
                "web.responses",
                "web.connections.empty",
                "web.timeouts",
                "web.errors",
            ]
            .map(|name| server.telemetry().counter(name))
        };
        wait_until("every connection accounted for", || {
            counts().iter().sum::<u64>() == accepted
        });
        assert_eq!(server.telemetry().counter("web.connections"), accepted);
        counts()
    }

    #[test]
    fn live_server_round_trip() {
        let p = Arc::new(platform());
        let server = WebServer::start(p, 0).unwrap();
        let raw = exchange(
            server.addr(),
            b"GET /search?q=Turin HTTP/1.1\r\nHost: localhost\r\nUser-Agent: test\r\n\r\n",
        );
        let response = String::from_utf8(raw).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("X-Request-Id: "), "{response}");
        assert!(response.contains("Turin"));
        server.stop();
    }

    #[test]
    fn silent_clients_hit_the_configured_read_timeout() {
        let p = Arc::new(platform());
        let pid = p.picture_ids()[0];
        let read_timeout = Duration::from_millis(1_600);
        let server = WebServer::start_with_config(
            p,
            0,
            ServerConfig {
                read_timeout,
                write_timeout: read_timeout,
            },
        )
        .unwrap();
        // Connect and send nothing: one worker now waits out the read
        // deadline. Everybody else must not.
        let silent = TcpStream::connect(server.addr()).unwrap();
        let clock = WallClock::new();
        for _ in 0..8 {
            assert_eq!(fetch(server.addr(), &format!("/picture/{pid}")).status, 200);
        }
        let elapsed = Duration::from_micros(clock.now_micros());
        assert!(
            elapsed < read_timeout / 4,
            "8 requests beside a silent client took {elapsed:?}"
        );
        // The deadline fires once and is recorded as a typed timeout,
        // not a generic error.
        assert_eq!(settled(&server, 9), [8, 0, 1, 0]);
        drop(silent);
        server.stop();
    }

    #[test]
    fn empty_connections_are_dropped_silently() {
        let p = Arc::new(platform());
        let server = WebServer::start(p, 0).unwrap();
        for _ in 0..3 {
            drop(TcpStream::connect(server.addr()).unwrap());
        }
        assert_eq!(settled(&server, 3), [0, 3, 0, 0]);
        assert_eq!(fetch(server.addr(), "/").status, 200);
        server.stop();
    }

    #[test]
    fn oversize_heads_are_refused_with_431() {
        let p = Arc::new(platform());
        let pid = p.picture_ids()[0];
        let server = WebServer::start(p, 0).unwrap();
        let long_line = format!("GET /search?q={} HTTP/1.1\r\n\r\n", "a".repeat(9_000));
        let many_headers = format!("GET / HTTP/1.1\r\n{}\r\n", "X-Pad: 1\r\n".repeat(65));
        let fat_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            format!("X-Pad: {}\r\n", "b".repeat(4_000)).repeat(9)
        );
        for head in [&long_line, &many_headers, &fat_headers] {
            let raw = exchange(server.addr(), head.as_bytes());
            let wire = Wire::parse(&raw).expect("a complete response");
            assert_eq!(wire.status, 431);
            assert!(String::from_utf8_lossy(&raw)
                .starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"));
        }
        // Right at the limits is still served.
        let at_limit = format!("GET / HTTP/1.1\r\n{}\r\n", "X-Pad: 1\r\n".repeat(64));
        assert_eq!(
            Wire::parse(&exchange(server.addr(), at_limit.as_bytes()))
                .unwrap()
                .status,
            200
        );
        assert_eq!(fetch(server.addr(), &format!("/picture/{pid}")).status, 200);
        assert_eq!(server.telemetry().counter("web.rejected.oversize"), 3);
        assert_eq!(settled(&server, 5), [5, 0, 0, 0]);
        server.stop();
    }

    #[test]
    fn read_head_buffers_a_bounded_amount() {
        // An endless line: refused after MAX_REQUEST_LINE + 1 bytes.
        let mut endless = std::io::BufReader::new(std::io::repeat(b'a'));
        assert_eq!(read_head(&mut endless).unwrap(), Head::Oversize);
        // Endless headers: refused within the byte budget.
        let endless = b"GET / HTTP/1.1\r\n"
            .chain(std::io::repeat(b'h'))
            .take(1 << 30);
        let mut counted = CountingReader {
            inner: endless,
            read: 0,
        };
        assert_eq!(
            read_head(&mut std::io::BufReader::new(&mut counted)).unwrap(),
            Head::Oversize
        );
        // BufReader reads ahead by its own (8 KiB) buffer at most.
        assert!(counted.read <= MAX_HEADER_BYTES + 2 * MAX_REQUEST_LINE + 2);
        assert_eq!(read_head(&mut &b""[..]).unwrap(), Head::Empty);
        // The stream ending mid-head ends the head.
        assert_eq!(
            read_head(&mut &b"GET / HTTP/1.1\r\nX-Tenant: a"[..]).unwrap(),
            Head::Request {
                line: "GET / HTTP/1.1".to_string(),
                headers: vec![("X-Tenant".to_string(), "a".to_string())],
            }
        );
    }

    struct CountingReader<R> {
        inner: R,
        read: usize,
    }

    impl<R: Read> Read for CountingReader<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    /// Arbitrary and mutated-valid request heads: every exchange ends
    /// in one well-formed response or a clean close, no worker dies,
    /// and the server still serves afterwards.
    #[test]
    fn fuzzed_request_heads_never_break_the_server() {
        let mut p = platform();
        p.enable_admission(crate::admission::AdmissionConfig {
            tenant_rate_per_sec: 1e9,
            tenant_burst: 1e9,
            ..Default::default()
        });
        let p = Arc::new(p);
        let pids = p.picture_ids();
        let server = WebServer::start_with_config(
            Arc::clone(&p),
            0,
            ServerConfig {
                // Heads cut short of their blank line wait this long.
                read_timeout: Duration::from_millis(30),
                write_timeout: Duration::from_secs(2),
            },
        )
        .unwrap();
        let valid: Vec<String> = [
            "/".to_string(),
            "/search?q=Tur&limit=3".to_string(),
            format!("/picture/{}", pids[0]),
            "/album?monument=Mole+Antonelliana&lang=it&radius=0.3".to_string(),
            "/resource?iri=http%3A%2F%2Fdbpedia.org%2Fresource%2FTurin".to_string(),
            "/trace/00000000000000aa".to_string(),
            "/subscriptions".to_string(),
        ]
        .iter()
        .map(|target| {
            format!("GET {target} HTTP/1.1\r\nHost: localhost\r\nX-Tenant: fuzz\r\nUser-Agent: Mobile\r\n\r\n")
        })
        .collect();

        let mut rng = DetRng::seed_from_u64(0x5eed_f022);
        let mut answered = 0u64;
        let cases = 300u64;
        for case in 0..cases {
            let mut head: Vec<u8> = if rng.random_bool(0.25) {
                let len = rng.random_range(0..600usize);
                (0..len).map(|_| rng.next_u64() as u8).collect()
            } else {
                valid[rng.random_range(0..valid.len())].clone().into_bytes()
            };
            for _ in 0..rng.random_range(0..4usize) {
                if head.is_empty() {
                    break;
                }
                let at = rng.random_range(0..head.len());
                match rng.random_range(0..5u32) {
                    0 => head[at] = rng.next_u64() as u8,
                    1 => {
                        head.remove(at);
                    }
                    2 => head.truncate(at),
                    3 => {
                        let byte = [b'%', b'\n', b'\r', b':', b' ', b'?', b'&', 0xff]
                            [rng.random_range(0..8usize)];
                        head.insert(at, byte);
                    }
                    _ => {
                        let run = rng.random_range(1..40_000usize);
                        let filler = vec![head[at]; run];
                        head.splice(at..at, filler);
                    }
                }
            }
            let raw = exchange(server.addr(), &head);
            if !raw.is_empty() {
                let shown = String::from_utf8_lossy(&head);
                let wire = Wire::parse(&raw).unwrap_or_else(|| {
                    panic!(
                        "case {case}: {shown:?} got malformed {:?}",
                        String::from_utf8_lossy(&raw)
                    )
                });
                assert!(
                    [200, 400, 404, 431].contains(&wire.status),
                    "case {case}: {shown:?} got {}",
                    wire.status
                );
                answered += 1;
            }
        }
        assert!(answered > cases / 2, "only {answered} of {cases} answered");
        for pid in pids.iter().take(4) {
            assert_eq!(fetch(server.addr(), &format!("/picture/{pid}")).status, 200);
        }
        let [responses, _empty, _timeouts, errors] = settled(&server, cases + 4);
        assert_eq!(responses, answered + 4);
        assert_eq!(errors, 0);
        // However a connection ended, it gave its admission slot back.
        assert_eq!(p.admission().unwrap().queue_depth(), 0);
        // A worker that panicked would surface here.
        server.stop();
    }

    /// The pool serves exactly what an in-process call serves.
    #[test]
    fn pooled_responses_equal_in_process_responses() {
        let p = Arc::new(platform());
        let pids = p.picture_ids();
        let mut rng = DetRng::seed_from_u64(12);
        let targets: Vec<String> = (0..240)
            .map(|_| {
                let pid = pids[rng.random_range(0..pids.len())];
                match rng.random_range(0..9u32) {
                    0 => "/".to_string(),
                    1 => format!(
                        "/search?q={}",
                        ["Tur", "Mol", "Pia", "x"][rng.random_range(0..4usize)]
                    ),
                    2 => format!(
                        "/album?monument=Mole+Antonelliana&lang=it&radius=0.{}",
                        rng.random_range(1..4u32)
                    ),
                    3 => format!(
                        "/resource?iri={}",
                        url_encode("http://dbpedia.org/resource/Mole_Antonelliana")
                    ),
                    4 => format!("/about/{pid}"),
                    5 => "/picture/none".to_string(),
                    6 => format!("/nope/{pid}"),
                    _ => format!("/picture/{pid}"),
                }
            })
            .collect();
        let expected: Vec<Response> = targets
            .iter()
            .map(|target| {
                let request = Request::parse(&format!("GET {target} HTTP/1.1"), &[]).unwrap();
                handle_request(&p, &request)
            })
            .collect();

        let server = WebServer::start(Arc::clone(&p), 0).unwrap();
        let addr = server.addr();
        const CLIENTS: usize = 8;
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let (targets, expected) = (&targets, &expected);
                scope.spawn(move || {
                    for i in (client..targets.len()).step_by(CLIENTS) {
                        let wire = fetch(addr, &targets[i]);
                        assert_eq!(wire.status, expected[i].status, "{}", targets[i]);
                        assert_eq!(wire.body, expected[i].body, "{}", targets[i]);
                        assert_eq!(wire.header("Content-Type"), Some(expected[i].content_type));
                    }
                });
            }
        });
        let served = targets.len() as u64;
        assert_eq!(settled(&server, served), [served, 0, 0, 0]);
        server.stop();
    }

    #[test]
    fn stop_is_prompt_idle_or_backlogged_and_frees_the_port() {
        let p = Arc::new(platform());
        let budget = Duration::from_millis(200);

        let idle = WebServer::start(Arc::clone(&p), 0).unwrap();
        let port = idle.addr().port();
        let clock = WallClock::new();
        idle.stop();
        let elapsed = Duration::from_micros(clock.now_micros());
        assert!(elapsed < budget, "idle stop took {elapsed:?}");

        // Same port, default 2 s read timeout: silent connections hold
        // every worker and more wait in the queue behind them.
        let backlogged = WebServer::start(Arc::clone(&p), port).unwrap();
        let connections = backlogged.telemetry().counter("web.connections");
        let silent: Vec<TcpStream> = (0..12)
            .map(|_| TcpStream::connect(backlogged.addr()).unwrap())
            .collect();
        wait_until("the backlog is accepted", || {
            backlogged.telemetry().counter("web.connections") == connections + 12
        });
        let clock = WallClock::new();
        backlogged.stop();
        let elapsed = Duration::from_micros(clock.now_micros());
        assert!(elapsed < budget, "backlogged stop took {elapsed:?}");
        assert_eq!(p.obs().metrics().counter("web.timeouts"), 0);
        drop(silent);

        let again = WebServer::start(Arc::clone(&p), port).unwrap();
        assert_eq!(fetch(again.addr(), "/").status, 200);
        again.stop();
    }

    #[test]
    fn server_timing_agrees_with_the_access_log() {
        let p = Arc::new(platform());
        let server = WebServer::start(Arc::clone(&p), 0).unwrap();
        let target = "/album?monument=Mole+Antonelliana&lang=it&radius=0.3";
        let clock = WallClock::new();
        let wire = fetch(server.addr(), target);
        let round_trip_ms = clock.now_micros() as f64 / 1e3;
        assert_eq!(wire.status, 200);

        let timing = wire.server_timing();
        let names: Vec<&str> = timing.iter().map(|(name, _)| name.as_str()).collect();
        // The three stages, then the request's child span: the view,
        // under which the cold solve's `sparql` span nests.
        assert_eq!(names, ["queue", "parse", "handle", "album.view"]);
        let dur = |name: &str| timing.iter().find(|(n, _)| n == name).unwrap().1;
        let staged_ms = dur("queue") + dur("parse") + dur("handle");
        assert!(
            staged_ms <= round_trip_ms,
            "stages {staged_ms} ms exceed the round trip {round_trip_ms} ms"
        );
        assert!(dur("album.view") <= dur("handle"));

        // `handle` is the access log's duration plus the few lines
        // around it; `/ops` shows the same entry.
        let entry = p.obs().access_log().recent(1).pop().unwrap();
        assert_eq!(
            wire.header("X-Request-Id"),
            Some(entry.request_id.to_string().as_str())
        );
        let logged_ms = entry.duration_us as f64 / 1e3;
        assert!(
            logged_ms <= dur("handle") && dur("handle") - logged_ms < 5.0,
            "handle {} ms vs access log {logged_ms} ms",
            dur("handle")
        );
        let ops = fetch(server.addr(), "/ops");
        let line = format!(
            "#{} 200 {} {}us",
            entry.request_id, entry.target, entry.duration_us
        );
        assert!(ops.body.contains(&line), "missing {line:?} in {}", ops.body);
        assert!(ops.body.contains("serving: workers busy=1"), "{}", ops.body);

        // Traced requests whose routes start no span list no children.
        let plain = fetch(server.addr(), "/").server_timing();
        assert_eq!(plain.len(), 3);

        settled(&server, 3);
        for name in ["web.queue_wait", "web.write"] {
            assert_eq!(
                p.obs().metrics().histogram(name).unwrap().count(),
                3,
                "{name}"
            );
        }
        server.stop();
    }

    /// The socket half of the golden exposition: every series the
    /// serving path writes.
    #[test]
    fn metrics_route_exposes_the_serving_path() {
        let p = Arc::new(platform());
        let server = WebServer::start(p, 0).unwrap();
        assert_eq!(fetch(server.addr(), "/").status, 200);
        drop(TcpStream::connect(server.addr()).unwrap());
        let oversize = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        assert_eq!(
            Wire::parse(&exchange(server.addr(), oversize.as_bytes()))
                .unwrap()
                .status,
            431
        );
        settled(&server, 3);

        let metrics = fetch(server.addr(), "/metrics");
        for line in [
            "# TYPE lodify_web_connections_total counter",
            "lodify_web_connections_total 4",
            "lodify_web_responses_total 2",
            "lodify_web_connections_empty_total 1",
            "lodify_web_rejected_oversize_total 1",
            "# TYPE lodify_web_workers_busy gauge",
            "lodify_web_workers_busy 1",
            "# TYPE lodify_web_queue_wait_seconds histogram",
            "lodify_web_queue_wait_seconds_count 4",
            "# TYPE lodify_web_write_seconds histogram",
            "lodify_web_write_seconds_count 2",
            "lodify_web_request_seconds_count 1",
        ] {
            assert!(
                metrics.body.contains(line),
                "missing {line:?} in:\n{}",
                metrics.body
            );
        }
        server.stop();
    }

    #[test]
    fn io_errors_classify_timeouts() {
        let timeout = std::io::Error::new(std::io::ErrorKind::TimedOut, "t");
        assert!(matches!(
            io_error("read", timeout),
            PlatformError::Timeout(_)
        ));
        let would_block = std::io::Error::new(std::io::ErrorKind::WouldBlock, "w");
        assert!(matches!(
            io_error("read", would_block),
            PlatformError::Timeout(_)
        ));
        let other = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "b");
        assert!(matches!(
            io_error("write", other),
            PlatformError::Invalid(_)
        ));
    }
}
