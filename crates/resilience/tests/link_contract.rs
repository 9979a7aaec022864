//! The delivery link's contract, once, on a toy payload.
//!
//! One sender with a dense journal `1..=head` ships `Frame`s over a
//! `Link` to a receiver that keeps nothing but a cursor. Seeded
//! schedules interleave publishes, pumps, replays, clock jumps, scripted
//! outages (long enough to trip the breaker), receiver-down spells and
//! a transport that drops, duplicates and reorders hand-offs. Whatever
//! the interleaving: the receiver applies `1..=cursor` in order, each
//! frame once; the park ledger balances; an open breaker never reaches
//! the fault plan; and once the plan heals a bounded number of rounds
//! converges.

use lodify_resilience::{
    arrival, Arrival, BreakerState, DetRng, FaultPlan, Frame, Link, RetryPolicy, VirtualClock,
};

const TARGET: &str = "toy:receiver";
const PREFIX: &str = "toy";

struct Toy {
    link: Link<Frame>,
    plan: FaultPlan,
    /// Sender's journal head; frame `n` is just the number `n`.
    head: u64,
    /// Receiver's durable cursor and the order it applied frames in.
    cursor: u64,
    applied: Vec<u64>,
    receiver_up: bool,
    /// Hand-offs the transport is holding back (reordered).
    held: Vec<u64>,
    chaos: Option<DetRng>,
}

impl Toy {
    fn new(plan: FaultPlan, retry: RetryPolicy, chaos: DetRng) -> Toy {
        let mut link = Link::new(PREFIX, "toy-transport");
        link.with_fault_plan(plan.clone(), retry);
        assert_eq!(link.add_peer(TARGET.into()), 0);
        Toy {
            link,
            plan,
            head: 0,
            cursor: 0,
            applied: Vec::new(),
            receiver_up: true,
            held: Vec::new(),
            chaos: Some(chaos),
        }
    }

    fn plan_calls(&self) -> u64 {
        self.plan
            .telemetry()
            .counter(&format!("fault.calls.{TARGET}"))
    }

    /// `Link::attempt`, checking that a refusal by the open breaker
    /// made no `plan.check` call (and that nothing else is refused
    /// without one).
    fn attempt(&mut self) -> Result<(), String> {
        let (calls, state) = (self.plan_calls(), self.link.breaker_state(0));
        let verdict = self.link.attempt(0);
        match &verdict {
            Err(e) if e.starts_with("breaker open") => {
                assert_eq!(state, BreakerState::Open);
                assert_eq!(self.plan_calls(), calls, "open breaker reached the plan");
            }
            _ => assert!(self.plan_calls() > calls, "judged without the plan"),
        }
        verdict
    }

    /// The receiver rule: duplicates are no-ops, a gap is pulled from
    /// the sender's journal first.
    fn receive(&mut self, seq: u64) {
        let missing = match arrival(self.cursor, seq) {
            Arrival::Duplicate => return,
            Arrival::InOrder => seq..seq,
            Arrival::Gap(missing) => missing,
        };
        self.applied.extend(missing);
        self.applied.push(seq);
        self.cursor = seq;
    }

    /// A judged-deliverable frame meets the transport.
    fn hand_off(&mut self, seq: u64) {
        let Some(rng) = self.chaos.as_mut() else {
            return self.receive(seq);
        };
        match rng.random_range(0..10u32) {
            0 | 1 => {} // dropped
            2 => {
                self.receive(seq);
                self.receive(seq);
            }
            3 => self.held.push(seq),
            _ => self.receive(seq),
        }
    }

    fn pump(&mut self) {
        for seq in std::mem::take(&mut self.held) {
            if self.receiver_up {
                self.receive(seq);
            } else {
                self.link
                    .park(Frame { peer: 0, seq }, "receiver down".into());
            }
        }
        while let Some(seq) = self.link.next_to_ship(0, self.head) {
            if !self.receiver_up {
                self.link
                    .park(Frame { peer: 0, seq }, "receiver down".into());
            } else {
                match self.attempt() {
                    Ok(()) => self.hand_off(seq),
                    Err(error) => self.link.park(Frame { peer: 0, seq }, error),
                }
            }
            self.link.mark_shipped(0, seq);
        }
        // Anti-entropy, as replication does it: a dropped or exhausted
        // final frame leaves no later arrival to expose the gap.
        while self.receiver_up && self.cursor < self.head && self.attempt().is_ok() {
            self.receive(self.cursor + 1);
        }
    }

    fn replay(&mut self) {
        let before = self.link.depth();
        let report = Link::replay(
            self,
            |toy| &mut toy.link,
            |toy, frame| {
                if !toy.receiver_up {
                    return Err("receiver down".into());
                }
                toy.attempt()?;
                toy.receive(frame.seq);
                Ok(())
            },
        );
        assert_eq!(
            report.replayed + report.requeued + report.exhausted,
            before,
            "every parked frame settled exactly once"
        );
    }

    fn check_invariants(&self) {
        let in_order: Vec<u64> = (1..=self.cursor).collect();
        assert_eq!(self.applied, in_order, "applied 1..=cursor, in order, once");
        assert!(self.cursor <= self.head);
        let t = self.link.telemetry();
        let parked = t.counter(&format!("{PREFIX}.parked"));
        let redelivered = t.counter(&format!("{PREFIX}.redelivered"));
        let (exhausted, depth) = (self.link.exhausted() as u64, self.link.depth() as u64);
        assert_eq!(parked, redelivered + exhausted + depth, "park ledger");
        if parked > 0 {
            assert_eq!(t.gauge(&format!("{PREFIX}.dlq.depth")), Some(depth));
        }
    }
}

fn run_schedule(seed: u64) -> (u64, u64, u64) {
    let mut rng = DetRng::seed_from_u64(seed).fork("link-contract");
    let clock = VirtualClock::new();
    let mut builder = FaultPlan::builder().seed(seed);
    let mut from = 0;
    for _ in 0..rng.random_range(1..4u32) {
        from += rng.random_range(0..4_000u64);
        let until = from + rng.random_range(1..6_000u64);
        builder = builder.outage(TARGET, from, until);
        from = until;
    }
    if rng.random_bool(0.5) {
        builder = builder.failure_rate(TARGET, 0.2);
    }
    let retry = if rng.random_bool(0.5) {
        RetryPolicy::no_retry()
    } else {
        RetryPolicy::default()
    };
    let mut toy = Toy::new(builder.build(clock.clone()), retry, rng.fork("chaos"));

    for _ in 0..rng.random_range(40..90u32) {
        match rng.random_range(0..10u32) {
            0..=2 => toy.head += 1,
            3..=5 => toy.pump(),
            6 => toy.replay(),
            7 => toy.receiver_up = !toy.receiver_up,
            _ => {
                clock.advance(rng.random_range(0..1_500u64));
            }
        }
        toy.check_invariants();
    }

    // Heal: a clean plan on the same clock, a faithful transport, the
    // receiver back up. The first round may still find the breaker
    // open; its cooldown is over by the second.
    toy.plan = FaultPlan::none(clock.clone());
    toy.link
        .with_fault_plan(toy.plan.clone(), RetryPolicy::no_retry());
    toy.chaos = None;
    toy.receiver_up = true;
    let mut rounds = 0;
    while toy.cursor < toy.head || toy.link.depth() > 0 || !toy.held.is_empty() {
        rounds += 1;
        assert!(
            rounds <= 3,
            "seed {seed}: no convergence in 3 healed rounds"
        );
        clock.advance(1_000);
        toy.pump();
        toy.replay();
        toy.check_invariants();
    }
    assert_eq!(toy.applied.len() as u64, toy.head);
    let t = toy.link.telemetry();
    (
        t.counter("toy.parked"),
        t.counter("toy.breaker.rejections"),
        toy.link.exhausted() as u64,
    )
}

#[test]
fn link_contract_holds_over_seeded_schedules() {
    let (mut parked, mut rejections, mut exhausted) = (0, 0, 0);
    for seed in 0..250 {
        let (p, r, e) = run_schedule(seed);
        parked += p;
        rejections += r;
        exhausted += e;
    }
    // The schedules really went through the hard parts.
    assert!(parked > 250, "parks: {parked}");
    assert!(rejections > 0, "breaker never refused");
    assert!(exhausted > 0, "attempt cap never hit");
}

#[test]
fn schedules_replay_identically_from_their_seed() {
    assert_eq!(run_schedule(7), run_schedule(7));
}
