//! One at-least-once delivery link.
//!
//! Replication shipments, live-album diff pushes and federation
//! notifications all answer the same two questions — *may this delivery
//! go now*, and *what happens when it may not* — so the answer lives
//! here once. A [`Link`] owns the transport script (an optional
//! [`FaultPlan`] under a [`RetryPolicy`] whose jitter comes from a
//! caller-named [`DetRng`] fork, so seeded schedules replay
//! identically), one [`CircuitBreaker`] and sender-side `shipped`
//! cursor per peer, the [`DeadLetterQueue`] of deliveries that could
//! not go, and the `<prefix>.parked` / `.retries` / `.redelivered` /
//! `.breaker.rejections` counters and `.dlq.depth` gauge (names
//! precomputed; the hot path allocates nothing).
//!
//! What a frame *is*, what applying it does and what a down receiver
//! means stay with the caller; DESIGN.md §8 has the state machine.
//! Receivers of sequence-numbered frames share one more rule,
//! [`arrival`].

use std::ops::Range;

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::dlq::{DeadLetterQueue, ReplayReport};
use crate::fault::FaultPlan;
use crate::retry::RetryPolicy;
use crate::rng::DetRng;
use crate::telemetry::Telemetry;

/// Attempt cap for a parked delivery (the failed first try plus
/// replays); past it the item moves to the exhausted bucket.
pub const MAX_ATTEMPTS: u32 = 8;

/// Handle of one peer on a [`Link`]: dense, in [`Link::add_peer`]
/// order, so callers with their own dense ids can use those directly.
pub type PeerId = usize;

/// A parked sequence-numbered delivery: which peer, which frame of
/// the sender's journal. The payload is refetched from the journal on
/// replay, so the queue never holds stale copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The peer the frame is bound for.
    pub peer: PeerId,
    /// The frame's sequence number in the sender's journal.
    pub seq: u64,
}

/// How a sequence-numbered frame relates to the receiver's cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arrival {
    /// Already applied (`seq <= cursor`): a no-op.
    Duplicate,
    /// The next frame (`seq == cursor + 1`): apply it.
    InOrder,
    /// Frames are missing: pull this range from the sender's journal
    /// and apply it first, then the frame itself.
    Gap(Range<u64>),
}

/// The receiver rule every sequence-numbered consumer applies.
pub fn arrival(cursor: u64, seq: u64) -> Arrival {
    if seq <= cursor {
        Arrival::Duplicate
    } else if seq == cursor + 1 {
        Arrival::InOrder
    } else {
        Arrival::Gap(cursor + 1..seq)
    }
}

struct Peer {
    target: String,
    breaker: CircuitBreaker,
    /// Highest sequence handed to delivery (applied or parked).
    shipped: u64,
}

/// Telemetry names, built once from the link's prefix.
struct Names {
    parked: String,
    retries: String,
    redelivered: String,
    rejections: String,
    depth: String,
}

/// The sender side of an at-least-once delivery path. See the module
/// docs.
pub struct Link<T> {
    plan: Option<FaultPlan>,
    retry: RetryPolicy,
    rng: DetRng,
    peers: Vec<Peer>,
    dlq: DeadLetterQueue<T>,
    telemetry: Telemetry,
    names: Names,
}

impl<T> Link<T> {
    /// A link with perfect transport and no peers. `prefix` names its
    /// telemetry (`replication`, `live.push`, `federation`);
    /// `rng_label` forks the retry-jitter stream.
    pub fn new(prefix: &str, rng_label: &str) -> Link<T> {
        Link {
            plan: None,
            retry: RetryPolicy::no_retry(),
            rng: DetRng::seed_from_u64(0).fork(rng_label),
            peers: Vec::new(),
            dlq: DeadLetterQueue::new(MAX_ATTEMPTS),
            telemetry: Telemetry::new(),
            names: Names {
                parked: format!("{prefix}.parked"),
                retries: format!("{prefix}.retries"),
                redelivered: format!("{prefix}.redelivered"),
                rejections: format!("{prefix}.breaker.rejections"),
                depth: format!("{prefix}.dlq.depth"),
            },
        }
    }

    /// Installs fault-injected transport: every [`Link::attempt`] is
    /// judged by `plan` under the peer's target, retried per `retry`
    /// in the plan's virtual time.
    pub fn with_fault_plan(&mut self, plan: FaultPlan, retry: RetryPolicy) {
        self.plan = Some(plan);
        self.retry = retry;
    }

    /// The installed fault plan and retry policy, for a caller that
    /// hands the same transport script to links it creates later.
    pub fn fault_plan(&self) -> Option<(&FaultPlan, &RetryPolicy)> {
        self.plan.as_ref().map(|plan| (plan, &self.retry))
    }

    /// Adds a peer judged under fault-plan target `target`.
    pub fn add_peer(&mut self, target: String) -> PeerId {
        self.peers.push(Peer {
            target,
            breaker: CircuitBreaker::new(BreakerConfig::default()),
            shipped: 0,
        });
        self.peers.len() - 1
    }

    /// Whether one delivery to `peer` may go now: the peer's breaker
    /// first (an open breaker refuses without touching the plan), then
    /// the fault plan under the retry policy, then breaker feedback.
    /// A first try and a replay are judged alike.
    pub fn attempt(&mut self, peer: PeerId) -> Result<(), String> {
        let peer = &mut self.peers[peer];
        if !peer.breaker.allow(now_ms(&self.plan)) {
            self.telemetry.incr(&self.names.rejections);
            return Err(format!("breaker open for {}", peer.target));
        }
        let outcome = match &self.plan {
            None => Ok(()),
            Some(plan) => self
                .retry
                .run(plan.clock(), &mut self.rng, |attempt| {
                    if attempt > 1 {
                        self.telemetry.incr(&self.names.retries);
                    }
                    plan.check(&peer.target)
                })
                .map(drop)
                .map_err(|e| e.to_string()),
        };
        match &outcome {
            Ok(()) => peer.breaker.on_success(now_ms(&self.plan)),
            Err(_) => peer.breaker.on_failure(now_ms(&self.plan)),
        }
        outcome
    }

    /// The next sequence number to hand to delivery for `peer`, given
    /// the sender's journal `head`; `None` when the backlog is empty.
    pub fn next_to_ship(&self, peer: PeerId, head: u64) -> Option<u64> {
        let seq = self.peers[peer].shipped + 1;
        (seq <= head).then_some(seq)
    }

    /// Records that `seq` was handed to delivery — applied or parked,
    /// the slot is accounted for. Marking below the current cursor
    /// rewinds it (a receiver that lost its state is shipped the
    /// journal again).
    pub fn mark_shipped(&mut self, peer: PeerId, seq: u64) {
        self.peers[peer].shipped = seq;
    }

    /// The sender-side cursor of `peer`.
    pub fn shipped(&self, peer: PeerId) -> u64 {
        self.peers[peer].shipped
    }

    /// Parks a delivery that could not go; [`Link::replay`] retries it.
    pub fn park(&mut self, item: T, error: String) {
        self.telemetry.incr(&self.names.parked);
        self.dlq.push(item, error, now_ms(&self.plan));
        self.publish_depth();
    }

    /// Replays every parked delivery through `step`, which re-runs the
    /// caller's delivery (its own checks, [`Link::attempt`], apply)
    /// with the link's owner borrowed mutably — `link` projects the
    /// owner to this link, so no caller swaps a queue out to get at
    /// itself. `Ok` retires the item, `Err` re-parks it until
    /// [`MAX_ATTEMPTS`] exhausts it; items parked during the pass wait
    /// for the next one.
    pub fn replay<O>(
        owner: &mut O,
        link: impl Fn(&mut O) -> &mut Link<T>,
        mut step: impl FnMut(&mut O, &T) -> Result<(), String>,
    ) -> ReplayReport {
        let mut report = ReplayReport::default();
        for letter in link(owner).dlq.take_letters() {
            let outcome = step(owner, &letter.item);
            link(owner).dlq.settle(letter, outcome, &mut report);
        }
        let this = link(owner);
        this.telemetry
            .add(&this.names.redelivered, report.replayed as u64);
        this.publish_depth();
        report
    }

    /// Parked deliveries awaiting [`Link::replay`].
    pub fn depth(&self) -> usize {
        self.dlq.depth()
    }

    /// Deliveries abandoned after [`MAX_ATTEMPTS`] — surfaced for
    /// operators, never silently dropped.
    pub fn exhausted(&self) -> usize {
        self.dlq.exhausted().len()
    }

    /// Breaker state of `peer`.
    pub fn breaker_state(&self, peer: PeerId) -> BreakerState {
        self.peers[peer].breaker.state()
    }

    /// The link's telemetry registry: the counters it maintains plus
    /// whatever the caller counts under the same prefix.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn publish_depth(&self) {
        self.telemetry
            .set_gauge(&self.names.depth, self.dlq.depth() as u64);
    }
}

/// The plan's virtual instant (0 without a plan).
fn now_ms(plan: &Option<FaultPlan>) -> u64 {
    plan.as_ref().map_or(0, |p| p.clock().now_ms())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_classifies_against_the_cursor() {
        assert_eq!(arrival(3, 2), Arrival::Duplicate);
        assert_eq!(arrival(3, 3), Arrival::Duplicate);
        assert_eq!(arrival(3, 4), Arrival::InOrder);
        assert_eq!(arrival(3, 7), Arrival::Gap(4..7));
        assert_eq!(arrival(0, 1), Arrival::InOrder);
    }

    #[test]
    fn replay_retires_requeues_and_exhausts_with_telemetry() {
        struct Owner {
            link: Link<u64>,
            applied: Vec<u64>,
        }
        let mut owner = Owner {
            link: Link::new("toy", "toy-transport"),
            applied: Vec::new(),
        };
        owner.link.park(1, "down".into());
        owner.link.park(2, "down".into());
        assert_eq!(owner.link.telemetry().gauge("toy.dlq.depth"), Some(2));

        let report = Link::replay(
            &mut owner,
            |o| &mut o.link,
            |o, &item| {
                if item == 1 {
                    o.applied.push(item);
                    Ok(())
                } else {
                    // Parking mid-pass is allowed and waits its turn.
                    o.link.park(3, "late".into());
                    Err("still down".into())
                }
            },
        );
        assert_eq!((report.replayed, report.requeued), (1, 1));
        assert_eq!(owner.applied, [1]);
        assert_eq!(owner.link.depth(), 2, "item 2 re-parked, item 3 new");
        assert_eq!(owner.link.telemetry().counter("toy.parked"), 3);
        assert_eq!(owner.link.telemetry().counter("toy.redelivered"), 1);
        assert_eq!(owner.link.telemetry().gauge("toy.dlq.depth"), Some(2));

        for _ in 0..MAX_ATTEMPTS {
            Link::replay(&mut owner, |o| &mut o.link, |_, _| Err("never".into()));
        }
        assert_eq!(owner.link.depth(), 0);
        assert_eq!(owner.link.exhausted(), 2);
    }

    #[test]
    fn shipped_cursor_walks_the_backlog_and_rewinds() {
        let mut link: Link<u64> = Link::new("toy", "toy-transport");
        let a = link.add_peer("peer:a".into());
        assert_eq!(link.next_to_ship(a, 0), None);
        assert_eq!(link.next_to_ship(a, 2), Some(1));
        link.mark_shipped(a, 1);
        link.mark_shipped(a, 2);
        assert_eq!(link.next_to_ship(a, 2), None);
        link.mark_shipped(a, 0);
        assert_eq!(link.next_to_ship(a, 2), Some(1));
        assert_eq!(link.shipped(a), 0);
    }
}
