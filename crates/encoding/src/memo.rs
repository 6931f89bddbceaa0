//! Statement-embedding memo for [`crate::PlanEncoder`].
//!
//! A node's semantic block is a pure function of its rendered execution
//! statement: `embed_mean(tokenize_statement(statement))`. Plans repeat
//! statements heavily — the same scans, filters and exchanges recur
//! across a query's candidate plans and across the queries of one
//! template — so the encoder keeps the block per statement. A hit copies
//! `dim` floats instead of tokenising and averaging, and allocates
//! nothing; a miss computes the block with exactly those two functions,
//! so a memoised block is bit-identical to a computed one.
//!
//! The memo is split into [`STRIPES`] mutex-guarded maps, picked by the
//! statement's hash, so concurrent encoders sharing it rarely contend.
//! It is bounded by [`MEMO_CAPACITY`] entries: a stripe that is full
//! when a new statement arrives is cleared first.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::sync::{Mutex, MutexGuard};

/// Number of independently locked stripes.
const STRIPES: usize = 16;

/// Most entries one memo holds. An entry costs its statement's bytes,
/// `4 * dim` bytes of embedding, and about 75 bytes of map buckets and
/// allocator headers. Over 43k planned IMDB plans (811k statements, 25k
/// distinct) statements are at most 302 bytes long (111 on average per
/// distinct statement), so with the default 32-wide embedding an entry
/// takes at most ~500 bytes and a full memo at most ~14 MB. On that
/// stream a 16k-entry memo, clearing stripes as they fill, still gets
/// 99.8% of the hits an unbounded one gets.
pub const MEMO_CAPACITY: usize = 28 * 1024;

/// Entries one stripe holds before it is cleared.
const STRIPE_CAPACITY: usize = MEMO_CAPACITY / STRIPES;

type Stripe = HashMap<Box<str>, Box<[f32]>>;

/// Statement → semantic-block memo, shared by an encoder and its clones.
pub(crate) struct StatementMemo {
    stripe_hasher: RandomState,
    stripes: [Mutex<Stripe>; STRIPES],
}

/// Acquires a stripe, recovering the guard from a poisoned lock: an
/// insert or clear that unwinds leaves the map valid, and every entry
/// in it is a finished, correct block.
fn lock(m: &Mutex<Stripe>) -> MutexGuard<'_, Stripe> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl StatementMemo {
    pub(crate) fn new() -> Self {
        Self {
            stripe_hasher: RandomState::new(),
            stripes: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    /// Writes the semantic block of `statement` into `out`, running
    /// `compute` only when the memo does not hold it yet.
    pub(crate) fn embed_into(
        &self,
        statement: &str,
        out: &mut [f32],
        compute: impl FnOnce(&str) -> Vec<f32>,
    ) {
        // PANIC-FREE: STRIPES is a non-zero constant, and the index it
        // yields is below the array's length STRIPES.
        let stripe = &self.stripes[self.stripe_hasher.hash_one(statement) as usize % STRIPES];
        if let Some(block) = lock(stripe).get(statement) {
            out.iter_mut().zip(block.iter()).for_each(|(o, &v)| *o = v);
            return;
        }
        // Computed outside the lock: two threads that miss on the same
        // statement both compute the same block, and either insert wins.
        let block = compute(statement);
        out.iter_mut().zip(block.iter()).for_each(|(o, &v)| *o = v);
        let mut map = lock(stripe);
        if map.len() >= STRIPE_CAPACITY {
            map.clear();
        }
        // HOT-ALLOC: a miss stores one boxed key and block; the memo is
        // capped at MEMO_CAPACITY entries, and repeated statements (most
        // of them) are then served without allocating.
        map.insert(statement.into(), block.into_boxed_slice());
    }

    /// Entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.stripes.iter().map(|s| lock(s).len()).sum()
    }
}

impl fmt::Debug for StatementMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StatementMemo").field("entries", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filling_past_the_cap_stays_within_it() {
        let memo = StatementMemo::new();
        let mut out = [0.0f32; 2];
        for i in 0..3 * MEMO_CAPACITY {
            memo.embed_into(&format!("Filter (t.id < {i})"), &mut out, |_| vec![i as f32, 1.0]);
            assert_eq!(out, [i as f32, 1.0]);
        }
        let len = memo.len();
        assert!(len <= MEMO_CAPACITY, "{len} entries exceed the cap {MEMO_CAPACITY}");
        assert!(len > 0);
    }

    #[test]
    fn a_hit_returns_the_stored_block_without_computing() {
        let memo = StatementMemo::new();
        let mut out = [0.0f32; 3];
        memo.embed_into("Exchange SinglePartition", &mut out, |_| vec![1.0, -0.0, 2.5]);
        let mut again = [9.0f32; 3];
        memo.embed_into("Exchange SinglePartition", &mut again, |_| unreachable!("memo hit"));
        assert_eq!(again.map(f32::to_bits), [1.0f32, -0.0, 2.5].map(f32::to_bits));
        assert_eq!(memo.len(), 1);
    }
}
