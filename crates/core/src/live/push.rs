//! SparqlPuSH diff push: at-least-once delivery of album diffs.
//!
//! The paper's §6 names PubSubHubbub/SparqlPuSH push as the missing
//! distribution leg of LODified sharing. [`PushHub`] supplies it for
//! live albums: every subscriber owns a durable-ordered **outbox** of
//! [`AlbumDiff`] frames (monotonic sequence numbers), shipped over the
//! one delivery [`Link`] the federation and replication layers also
//! use: each subscriber is a peer judged at target `push:<callback>`,
//! and what cannot go parks until [`PushHub::redeliver`].
//!
//! Delivery is **at-least-once** and subscriber apply is
//! **idempotent**: frames carry absolute `(link, rank)` upserts, the
//! subscriber keeps a cursor of the highest applied sequence, and the
//! link's [`arrival`] rule turns a duplicate into a no-op and a gap
//! into a catch-up replay from the outbox journal — so drops,
//! duplicates and mid-stream subscriber crashes all converge to the
//! same state. A crashed subscriber that recovers replays the full
//! outbox from sequence 1; because frames are absolute
//! upserts/removals, the replay reconstructs the album exactly (chaos
//! tests assert byte-identity with a fresh recompute).

use std::collections::BTreeMap;

use lodify_obs::{Metrics, Obs, Tracer};
use lodify_resilience::{
    arrival, Arrival, BreakerState, FaultPlan, Frame, Link, ReplayReport, RetryPolicy, Telemetry,
};

use super::engine::{member_order, AlbumDiff, LiveAlbumId, Rank, StandingQueryEngine};
use crate::metrics::LivePushOps;

/// Handle of one subscription.
pub type SubscriberId = usize;

/// The subscriber-side materialization: an idempotent fold over the
/// diff stream.
#[derive(Debug, Clone, Default)]
pub struct SubscriberAlbum {
    members: BTreeMap<String, Option<Rank>>,
    cursor: u64,
    limit: Option<usize>,
}

impl SubscriberAlbum {
    /// Highest applied outbox sequence.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The subscriber's view of the album, in the same canonical order
    /// (and under the same `LIMIT`) as the publisher's answer.
    pub fn links(&self) -> Vec<String> {
        let mut ordered: Vec<(String, Option<Rank>)> = self
            .members
            .iter()
            .map(|(l, r)| (l.clone(), r.clone()))
            .collect();
        ordered.sort_by(member_order);
        let mut links: Vec<String> = ordered.into_iter().map(|(l, _)| l).collect();
        if let Some(limit) = self.limit {
            links.truncate(limit);
        }
        links
    }

    /// Applies the next frame (`seq == cursor + 1`).
    fn apply(&mut self, seq: u64, diff: &AlbumDiff) {
        for (link, rank) in &diff.upserts {
            self.members.insert(link.clone(), rank.clone());
        }
        for link in &diff.removals {
            self.members.remove(link);
        }
        self.cursor = seq;
    }
}

struct PushSub {
    /// Callback identity; deliveries are judged at `push:<callback>`.
    callback: String,
    album: LiveAlbumId,
    /// Result cap the subscriber renders with (survives crashes).
    limit: Option<usize>,
    /// Ordered diff journal; frame `i` has sequence `i + 1`.
    outbox: Vec<AlbumDiff>,
    /// `None` while the subscriber is crashed.
    state: Option<SubscriberAlbum>,
}

impl PushSub {
    fn head(&self) -> u64 {
        self.outbox.len() as u64
    }
}

/// Per-subscriber diff outboxes with fault-injected, at-least-once
/// shipping. See the module docs.
pub struct PushHub {
    subs: Vec<PushSub>,
    /// One peer per subscriber; `PeerId == SubscriberId`.
    link: Link<Frame>,
    metrics: Option<Metrics>,
    tracer: Option<Tracer>,
}

impl Default for PushHub {
    fn default() -> Self {
        Self::new()
    }
}

impl PushHub {
    /// A hub with no subscribers and perfect transport.
    pub fn new() -> PushHub {
        PushHub {
            subs: Vec::new(),
            link: Link::new("live.push", "live-push-transport"),
            metrics: None,
            tracer: None,
        }
    }

    /// Installs fault-injected transport: every delivery to a
    /// subscriber is judged by `plan` under target `push:<callback>`,
    /// retried per `retry`.
    pub fn with_fault_plan(&mut self, plan: FaultPlan, retry: RetryPolicy) {
        self.link.with_fault_plan(plan, retry);
    }

    /// Attaches observability: `live.push` spans plus mirrored
    /// counters and the `live.push.lag` gauge.
    pub fn set_observability(&mut self, obs: &Obs) {
        self.metrics = Some(obs.metrics().clone());
        self.tracer = Some(obs.tracer().clone());
    }

    /// Push telemetry (`live.push.*` counters and gauges).
    pub fn telemetry(&self) -> &Telemetry {
        self.link.telemetry()
    }

    /// Subscribes `callback` to `album`, seeding its outbox with a
    /// snapshot frame so a fresh subscriber converges to the current
    /// membership. Returns the subscription handle.
    pub fn subscribe(
        &mut self,
        callback: &str,
        album: LiveAlbumId,
        engine: &StandingQueryEngine,
    ) -> SubscriberId {
        let spec = engine.spec(album);
        let snapshot = AlbumDiff {
            album,
            upserts: engine.members(album),
            removals: Vec::new(),
            moved: Vec::new(),
            trace: None,
        };
        let id = self.link.add_peer(format!("push:{callback}"));
        debug_assert_eq!(id, self.subs.len());
        self.subs.push(PushSub {
            callback: callback.to_string(),
            album,
            limit: spec.limit,
            outbox: vec![snapshot],
            state: Some(SubscriberAlbum {
                members: BTreeMap::new(),
                cursor: 0,
                limit: spec.limit,
            }),
        });
        id
    }

    /// Number of subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// True when nobody subscribed.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Appends `diff` to the outbox of every subscriber of its album.
    /// Call [`Self::pump`] afterwards to ship.
    pub fn offer(&mut self, diff: &AlbumDiff) {
        for sub in &mut self.subs {
            if sub.album == diff.album {
                sub.outbox.push(diff.clone());
                self.link.telemetry().incr("live.push.offered");
            }
        }
    }

    /// Ships every subscriber's backlog. Failed deliveries park in the
    /// DLQ and shipping moves on — the subscriber-side cursor plus
    /// catch-up replay keep out-of-order arrivals correct.
    pub fn pump(&mut self) {
        for idx in 0..self.subs.len() {
            while let Some(seq) = self.link.next_to_ship(idx, self.subs[idx].head()) {
                let trace = self.subs[idx].outbox[(seq - 1) as usize].trace;
                let span = self
                    .tracer
                    .as_ref()
                    .map(|t| t.start_with_context("live.push", trace));
                match self.link.attempt(idx) {
                    Ok(()) => self.deliver(idx, seq),
                    Err(error) => self.link.park(Frame { peer: idx, seq }, error),
                }
                self.link.mark_shipped(idx, seq);
                drop(span);
            }
        }
        self.publish_gauges();
    }

    /// Replays the push dead-letter queue; still-failing shipments are
    /// re-parked until the link's attempt cap exhausts them.
    pub fn redeliver(&mut self) -> ReplayReport {
        let report = Link::replay(
            self,
            |hub| &mut hub.link,
            |hub, &Frame { peer, seq }| {
                let sub = hub.subs.get(peer).ok_or("subscription removed")?;
                if seq > sub.head() {
                    return Err(format!("frame {seq} missing"));
                }
                hub.link.attempt(peer)?;
                hub.deliver(peer, seq);
                Ok(())
            },
        );
        self.publish_gauges();
        report
    }

    /// Applies frame `seq` on the subscriber, catching up any earlier
    /// frames first (a parked frame must not leave a hole when a later
    /// one lands).
    fn deliver(&mut self, idx: SubscriberId, seq: u64) {
        let sub = &mut self.subs[idx];
        let Some(state) = sub.state.as_mut() else {
            return; // crashed mid-stream: judged deliverable, nobody home
        };
        let telemetry = self.link.telemetry();
        match arrival(state.cursor, seq) {
            Arrival::Duplicate => {
                telemetry.incr("live.push.duplicates");
                return;
            }
            Arrival::InOrder => {}
            Arrival::Gap(missing) => {
                for q in missing {
                    telemetry.incr("live.push.catchups");
                    state.apply(q, &sub.outbox[(q - 1) as usize]);
                }
            }
        }
        state.apply(seq, &sub.outbox[(seq - 1) as usize]);
        telemetry.incr("live.push.delivered");
        if let Some(metrics) = &self.metrics {
            metrics.incr("live.push.delivered");
        }
    }

    /// Simulates a subscriber crash: its materialized state (cursor
    /// included) is lost; the outbox journal survives hub-side.
    pub fn kill(&mut self, id: SubscriberId) {
        self.subs[id].state = None;
        self.link.telemetry().incr("live.push.crashes");
    }

    /// Recovers a crashed subscriber with empty state. Shipping
    /// restarts from sequence 1; replaying the absolute diff stream
    /// reconstructs the album exactly.
    pub fn recover(&mut self, id: SubscriberId) {
        let sub = &mut self.subs[id];
        if sub.state.is_some() {
            return;
        }
        sub.state = Some(SubscriberAlbum {
            members: BTreeMap::new(),
            cursor: 0,
            limit: sub.limit,
        });
        self.link.mark_shipped(id, 0);
    }

    /// The subscriber's materialized album, if it is up.
    pub fn subscriber(&self, id: SubscriberId) -> Option<&SubscriberAlbum> {
        self.subs[id].state.as_ref()
    }

    /// `(callback, album, head, shipped, cursor, breaker)` rows for
    /// the `/subscriptions` route.
    pub fn rows(&self) -> Vec<(String, LiveAlbumId, u64, u64, Option<u64>, BreakerState)> {
        self.subs
            .iter()
            .enumerate()
            .map(|(id, s)| {
                (
                    s.callback.clone(),
                    s.album,
                    s.head(),
                    self.link.shipped(id),
                    s.state.as_ref().map(SubscriberAlbum::cursor),
                    self.link.breaker_state(id),
                )
            })
            .collect()
    }

    /// Maximum outbox backlog over live subscribers (head − cursor).
    pub fn lag(&self) -> u64 {
        self.subs
            .iter()
            .map(|s| match &s.state {
                Some(state) => s.head().saturating_sub(state.cursor),
                None => s.head(),
            })
            .max()
            .unwrap_or(0)
    }

    /// Whether every live subscriber has applied every frame with
    /// nothing parked.
    pub fn converged(&self) -> bool {
        self.lag() == 0 && self.link.depth() == 0
    }

    /// Parked deliveries awaiting [`Self::redeliver`].
    pub fn undelivered(&self) -> usize {
        self.link.depth()
    }

    /// Deliveries abandoned at the link's attempt cap.
    pub fn exhausted(&self) -> usize {
        self.link.exhausted()
    }

    /// Counter snapshot for `/ops`.
    pub fn ops(&self) -> LivePushOps {
        let telemetry = self.link.telemetry();
        LivePushOps {
            subscribers: self.subs.len(),
            delivered: telemetry.counter("live.push.delivered"),
            parked: telemetry.counter("live.push.parked"),
            redelivered: telemetry.counter("live.push.redelivered"),
            lag: self.lag(),
            dlq_depth: self.link.depth(),
        }
    }

    fn publish_gauges(&self) {
        let lag = self.lag();
        self.link.telemetry().set_gauge("live.push.lag", lag);
        if let Some(metrics) = &self.metrics {
            metrics.set_gauge("live.push.lag", lag);
            metrics.set_gauge("live.push.dlq.depth", self.link.depth() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_rdf::{ns, Literal, Point, Term, Triple};
    use lodify_resilience::VirtualClock;
    use lodify_store::Store;

    use crate::albums::AlbumSpec;

    /// One registered album over a minimal store: the Mole plus one
    /// in-radius picture.
    fn engine_with_album() -> (Store, StandingQueryEngine) {
        let gaz = lodify_context::Gazetteer::global();
        let mole: Point = gaz.poi("Mole_Antonelliana").unwrap().point(gaz);
        let mut store = Store::new();
        let g = store.default_graph();
        let monument = "http://dbpedia.org/resource/Mole_Antonelliana";
        store.insert(
            &Triple::spo(
                monument,
                ns::iri::rdfs_label().as_str(),
                Term::Literal(Literal::lang("Mole Antonelliana", "it").unwrap()),
            ),
            g,
        );
        store.insert(
            &Triple::spo(
                monument,
                ns::iri::geo_geometry().as_str(),
                Term::Literal(mole.to_literal()),
            ),
            g,
        );
        let pic = "http://t/pictures/1";
        store.insert(
            &Triple::spo(
                pic,
                ns::iri::rdf_type().as_str(),
                Term::Iri(ns::iri::microblog_post()),
            ),
            g,
        );
        store.insert(
            &Triple::spo(
                pic,
                ns::iri::geo_geometry().as_str(),
                Term::Literal(mole.offset_km(0.05, 0.0).to_literal()),
            ),
            g,
        );
        store.insert(
            &Triple::spo(
                pic,
                ns::iri::image_data().as_str(),
                Term::literal("http://t/media/1.jpg"),
            ),
            g,
        );
        let mut engine = StandingQueryEngine::new();
        engine.register(
            &store,
            &AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3),
        );
        (store, engine)
    }

    fn upsert(link: &str) -> AlbumDiff {
        AlbumDiff {
            album: 0,
            upserts: vec![(link.to_string(), None)],
            removals: Vec::new(),
            moved: Vec::new(),
            trace: None,
        }
    }

    #[test]
    fn snapshot_frame_converges_a_new_subscriber() {
        let (_, engine) = engine_with_album();
        let mut hub = PushHub::new();
        let sub = hub.subscribe("http://client/cb", 0, &engine);
        hub.pump();
        assert!(hub.converged());
        assert_eq!(hub.subscriber(sub).unwrap().links(), engine.links(0));
        assert_eq!(hub.telemetry().counter("live.push.delivered"), 1);
    }

    #[test]
    fn offered_diffs_ship_once_and_pumps_are_idempotent() {
        let (_, engine) = engine_with_album();
        let mut hub = PushHub::new();
        let sub = hub.subscribe("http://client/cb", 0, &engine);
        hub.pump();
        hub.offer(&upsert("http://t/media/2.jpg"));
        hub.pump();
        hub.pump();
        let state = hub.subscriber(sub).unwrap();
        assert_eq!(state.cursor(), 2);
        assert_eq!(
            state.links(),
            ["http://t/media/1.jpg", "http://t/media/2.jpg"]
        );
        assert_eq!(hub.telemetry().counter("live.push.delivered"), 2);
        assert_eq!(hub.telemetry().counter("live.push.duplicates"), 0);
    }

    #[test]
    fn outage_parks_frames_and_redelivery_converges() {
        let (_, engine) = engine_with_album();
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("push:http://client/cb", 0, 5_000)
            .build(clock.clone());
        let mut hub = PushHub::new();
        hub.with_fault_plan(plan, RetryPolicy::no_retry());
        let sub = hub.subscribe("http://client/cb", 0, &engine);
        hub.pump();
        assert_eq!(hub.undelivered(), 1, "snapshot frame parked");
        assert!(!hub.converged());

        // Heal the partition (and let the breaker cool down).
        clock.advance(10_000);
        let report = hub.redeliver();
        assert_eq!(report.replayed, 1);
        assert!(hub.converged());
        assert_eq!(hub.subscriber(sub).unwrap().links(), engine.links(0));
    }

    #[test]
    fn breaker_opens_after_repeated_failures() {
        let (_, engine) = engine_with_album();
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("push:http://client/cb", 0, u64::MAX)
            .build(clock);
        let mut hub = PushHub::new();
        hub.with_fault_plan(plan, RetryPolicy::no_retry());
        hub.subscribe("http://client/cb", 0, &engine);
        // Three failures trip the breaker; the fourth frame is then
        // rejected without touching the transport at all.
        hub.offer(&upsert("http://t/media/2.jpg"));
        hub.offer(&upsert("http://t/media/3.jpg"));
        hub.offer(&upsert("http://t/media/4.jpg"));
        hub.pump();
        assert_eq!(hub.rows()[0].5, BreakerState::Open);
        assert!(hub.telemetry().counter("live.push.breaker.rejections") > 0);
    }

    #[test]
    fn parked_frame_is_caught_up_by_a_later_delivery() {
        let (_, engine) = engine_with_album();
        let clock = VirtualClock::new();
        // Frame 1 ships cleanly; frame 2 hits a short outage window.
        let plan = FaultPlan::builder()
            .outage("push:http://client/cb", 1_000, 2_000)
            .build(clock.clone());
        let mut hub = PushHub::new();
        hub.with_fault_plan(plan, RetryPolicy::no_retry());
        let sub = hub.subscribe("http://client/cb", 0, &engine);
        hub.pump();
        clock.advance(1_500);
        hub.offer(&upsert("http://t/media/2.jpg"));
        hub.pump();
        assert_eq!(hub.undelivered(), 1, "frame 2 parked in the outage");

        // Frame 3 lands after the outage: delivering it catches up the
        // hole left by frame 2 from the outbox journal.
        clock.advance(1_500);
        hub.offer(&upsert("http://t/media/3.jpg"));
        hub.pump();
        let state = hub.subscriber(sub).unwrap();
        assert_eq!(state.cursor(), 3);
        assert_eq!(state.links().len(), 3);
        assert_eq!(hub.telemetry().counter("live.push.catchups"), 1);

        // Replaying the parked frame 2 is now a duplicate no-op.
        let report = hub.redeliver();
        assert_eq!(report.replayed, 1);
        assert_eq!(hub.telemetry().counter("live.push.duplicates"), 1);
        assert_eq!(hub.subscriber(sub).unwrap().cursor(), 3);
        assert!(hub.converged());
    }

    #[test]
    fn crash_and_recover_replays_the_full_outbox_to_identity() {
        let (_, engine) = engine_with_album();
        let mut hub = PushHub::new();
        let sub = hub.subscribe("http://client/cb", 0, &engine);
        hub.pump();
        hub.offer(&upsert("http://t/media/2.jpg"));
        hub.pump();

        hub.kill(sub);
        assert!(hub.subscriber(sub).is_none());
        // Frames offered while the subscriber is down are journaled
        // (and "shipped" to nobody).
        hub.offer(&upsert("http://t/media/3.jpg"));
        hub.pump();

        hub.recover(sub);
        hub.pump();
        let state = hub.subscriber(sub).unwrap();
        assert_eq!(state.cursor(), 3);
        assert_eq!(
            state.links(),
            [
                "http://t/media/1.jpg",
                "http://t/media/2.jpg",
                "http://t/media/3.jpg"
            ]
        );
        assert!(hub.converged());
    }

    #[test]
    fn ops_reports_lag_and_dlq_depth() {
        let (_, engine) = engine_with_album();
        let mut hub = PushHub::new();
        hub.subscribe("http://client/cb", 0, &engine);
        let ops = hub.ops();
        assert_eq!(ops.subscribers, 1);
        assert_eq!(ops.lag, 1, "snapshot frame not yet shipped");
        hub.pump();
        assert_eq!(hub.ops().lag, 0);
        assert_eq!(hub.ops().delivered, 1);
    }
}
