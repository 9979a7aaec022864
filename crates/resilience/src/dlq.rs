//! Generic dead-letter queues with attempt caps and replay.
//!
//! When a degradation path gives up on an item (an annotation that ran
//! with resolvers down, a federation notification that could not be
//! delivered, an upload past its retry cap) the item is *parked*, not
//! dropped. A later [`DeadLetterQueue::replay`] retries every parked
//! item; items that keep failing accumulate attempts until the cap
//! moves them to the `exhausted` bucket, which is surfaced — never
//! silently discarded.

/// One parked item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter<T> {
    /// The parked payload.
    pub item: T,
    /// Delivery/processing attempts so far.
    pub attempts: u32,
    /// Virtual instant of the first failure.
    pub first_failed_ms: u64,
    /// Description of the most recent failure.
    pub last_error: String,
}

/// Outcome of one replay pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Items processed successfully and removed.
    pub replayed: usize,
    /// Items that failed again and were re-parked.
    pub requeued: usize,
    /// Items that hit the attempt cap and moved to the exhausted bucket.
    pub exhausted: usize,
}

/// A dead-letter queue.
#[derive(Debug, Clone)]
pub struct DeadLetterQueue<T> {
    letters: Vec<DeadLetter<T>>,
    exhausted: Vec<DeadLetter<T>>,
    max_attempts: u32,
}

impl<T> DeadLetterQueue<T> {
    /// A queue whose items are abandoned (moved to the exhausted
    /// bucket) after `max_attempts` failed attempts.
    pub fn new(max_attempts: u32) -> DeadLetterQueue<T> {
        assert!(max_attempts >= 1);
        DeadLetterQueue {
            letters: Vec::new(),
            exhausted: Vec::new(),
            max_attempts,
        }
    }

    /// Parks an item after its first failure.
    pub fn push(&mut self, item: T, error: impl Into<String>, now_ms: u64) {
        self.letters.push(DeadLetter {
            item,
            attempts: 1,
            first_failed_ms: now_ms,
            last_error: error.into(),
        });
    }

    /// Parked items (not counting exhausted ones).
    pub fn depth(&self) -> usize {
        self.letters.len()
    }

    /// Items that hit the attempt cap.
    pub fn exhausted(&self) -> &[DeadLetter<T>] {
        &self.exhausted
    }

    /// Parked items, in arrival order.
    pub fn letters(&self) -> &[DeadLetter<T>] {
        &self.letters
    }

    /// The attempt cap.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Replays every parked item through `process`. `Ok` removes the
    /// item; `Err` re-parks it (or exhausts it at the cap). Items added
    /// during the pass are not replayed until the next pass.
    pub fn replay(&mut self, mut process: impl FnMut(&T) -> Result<(), String>) -> ReplayReport {
        let mut report = ReplayReport::default();
        for letter in self.take_letters() {
            let outcome = process(&letter.item);
            self.settle(letter, outcome, &mut report);
        }
        report
    }

    /// Takes every parked item out for a replay pass the caller drives
    /// itself — each letter must come back through
    /// [`DeadLetterQueue::settle`]. [`DeadLetterQueue::replay`] is this
    /// pair in a loop; the split exists so a processing step that needs
    /// the queue's owner mutably does not have to swap the queue out.
    pub fn take_letters(&mut self) -> Vec<DeadLetter<T>> {
        std::mem::take(&mut self.letters)
    }

    /// Settles one letter of a replay pass: `Ok` drops it, `Err`
    /// re-parks it with one more attempt, or moves it to the exhausted
    /// bucket at the cap.
    pub fn settle(
        &mut self,
        mut letter: DeadLetter<T>,
        outcome: Result<(), String>,
        report: &mut ReplayReport,
    ) {
        let Err(error) = outcome else {
            report.replayed += 1;
            return;
        };
        letter.attempts += 1;
        letter.last_error = error;
        if letter.attempts >= self.max_attempts {
            report.exhausted += 1;
            self.exhausted.push(letter);
        } else {
            report.requeued += 1;
            self.letters.push(letter);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_removes_successes_and_requeues_failures() {
        let mut dlq: DeadLetterQueue<&str> = DeadLetterQueue::new(5);
        dlq.push("a", "down", 10);
        dlq.push("b", "down", 11);
        assert_eq!(dlq.depth(), 2);

        let report = dlq.replay(|item| {
            if *item == "a" {
                Ok(())
            } else {
                Err("still down".into())
            }
        });
        assert_eq!(
            report,
            ReplayReport {
                replayed: 1,
                requeued: 1,
                exhausted: 0
            }
        );
        assert_eq!(dlq.depth(), 1);
        assert_eq!(dlq.letters()[0].item, "b");
        assert_eq!(dlq.letters()[0].attempts, 2);
        assert_eq!(dlq.letters()[0].last_error, "still down");
        assert_eq!(dlq.letters()[0].first_failed_ms, 11);
    }

    #[test]
    fn attempt_cap_moves_items_to_exhausted() {
        let mut dlq: DeadLetterQueue<u32> = DeadLetterQueue::new(3);
        dlq.push(7, "x", 0);
        // push counts as attempt 1; two failed replays reach the cap.
        assert_eq!(dlq.replay(|_| Err("x".into())).requeued, 1);
        let report = dlq.replay(|_| Err("x".into()));
        assert_eq!(report.exhausted, 1);
        assert_eq!(dlq.depth(), 0);
        assert_eq!(dlq.exhausted().len(), 1);
        assert_eq!(dlq.exhausted()[0].attempts, 3);
        // Exhausted items are not replayed again.
        assert_eq!(dlq.replay(|_| Ok(())), ReplayReport::default());
    }

    #[test]
    fn replay_preserves_arrival_order() {
        let mut dlq: DeadLetterQueue<u32> = DeadLetterQueue::new(10);
        for i in 0..5 {
            dlq.push(i, "e", i as u64);
        }
        dlq.replay(|_| Err("e".into()));
        let order: Vec<u32> = dlq.letters().iter().map(|l| l.item).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }
}
