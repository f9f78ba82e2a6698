//! Seeded inputs: the synthetic DBLP corpus, the query streams of the
//! workloads, and the update schedule.
//!
//! Everything here is a pure function of the workload seed, so two runs
//! with the same `--seed` send the program the same inputs.

use std::collections::BTreeSet;

use mv_core::{UpdateBatch, UpdateOp};
use mv_dblp::{queries, DblpConfig, DblpDataset};
use mv_pdb::{Row, Value};
use mv_query::Ucq;

/// The `aid` domain of the corpus.
pub const NUM_AUTHORS: usize = 4000;

/// Shards of the served engine (the figures default).
pub const NUM_SHARDS: usize = 4;

/// Tuple-weight nudges per weight-only batch.
pub const WEIGHT_NUDGES: usize = 4;

/// The two workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 5/6 point queries from two closed-loop clients.
    Point,
    /// Figure 2-style name-selection queries from two closed-loop clients.
    Broad,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "point" => Some(Workload::Point),
            "broad" => Some(Workload::Broad),
            _ => None,
        }
    }
}

/// Generates the V1+V2 corpus for a seed.
pub fn dataset(seed: u64) -> DblpDataset {
    DblpDataset::generate(DblpConfig {
        with_affiliation_view: false,
        seed,
        ..DblpConfig::with_authors(NUM_AUTHORS)
    })
    .expect("the synthetic corpus generates")
}

/// The distinct Boolean query texts of a read workload.
pub fn query_texts(data: &DblpDataset, workload: Workload) -> Vec<String> {
    let queries: Vec<Ucq> = match workload {
        Workload::Point => {
            let n = NUM_AUTHORS / 4;
            let mut qs = data.advisor_of_student_workload(n).expect("point queries");
            qs.extend(data.students_of_advisor_workload(n).expect("point queries"));
            qs
        }
        Workload::Broad => (1..=9)
            .map(|d| queries::students_of_advisor_named(&format!("f000{d}")).expect("broad query"))
            .collect(),
    };
    queries.iter().map(|q| q.boolean().to_string()).collect()
}

/// SplitMix64: a tiny seeded generator, so the benchmark's own sampling
/// does not depend on the program's RNG crates.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for a seed and a purpose tag (distinct streams per tag).
    pub fn new(seed: u64, tag: u64) -> SplitMix {
        SplitMix(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// The order in which readers send the distinct queries: a seeded
/// permutation, cycled.
pub fn query_order(num_distinct: usize, seed: u64) -> Vec<usize> {
    SplitMix::new(seed, 1).permutation(num_distinct)
}

/// One scheduled update batch.
#[derive(Debug, Clone)]
pub struct ScheduledBatch {
    /// `true` for a structural insert, `false` for weight-only nudges.
    pub structural: bool,
    /// The batch itself.
    pub batch: UpdateBatch,
}

/// The update schedule: `count` batches alternating weight-only (even
/// positions) and structural (odd positions).
///
/// Weight-only batches nudge [`WEIGHT_NUDGES`] distinct existing
/// probabilistic tuples by ×1.25, never the same tuple twice in a
/// schedule. Structural batches insert `Advisor(student, advisor)` for a
/// student that already has an advisor and an existing advisor it is not
/// yet paired with: the new tuple joins the student's `W` component (new
/// V1/V2 outputs), so exactly the shard holding that component rebuilds.
pub fn update_schedule(data: &DblpDataset, count: usize, seed: u64) -> Vec<ScheduledBatch> {
    let base = data.mvdb.base();
    let schema = base.schema();
    let advisor_rel = schema.relation_id("Advisor").expect("Advisor relation");
    let prob: Vec<(String, Row, f64)> = base
        .tuples()
        .filter(|(_, t)| !base.is_deterministic(t.rel) && t.weight.is_valid_base_weight())
        .map(|(id, t)| {
            (
                schema.relation(t.rel).name().to_string(),
                base.tuple_row(id).clone(),
                t.weight.value(),
            )
        })
        .collect();
    let mut pairs: BTreeSet<(i64, i64)> = base
        .tuples()
        .filter(|(_, t)| t.rel == advisor_rel)
        .map(|(id, _)| {
            let row = base.tuple_row(id);
            (
                row[0].as_int().expect("integer aid"),
                row[1].as_int().expect("integer aid"),
            )
        })
        .collect();
    assert!(
        !prob.is_empty() && !data.students.is_empty() && data.advisors.len() > 1,
        "the corpus has probabilistic tuples, students and advisors"
    );

    let mut rng = SplitMix::new(seed, 2);
    let nudge_order = rng.permutation(prob.len());
    let mut nudges = nudge_order.iter().cycle();
    (0..count)
        .map(|k| {
            if k % 2 == 0 {
                let mut batch = UpdateBatch::new();
                for _ in 0..WEIGHT_NUDGES {
                    let (rel, row, w) = &prob[*nudges.next().expect("cycle")];
                    batch.push(UpdateOp::SetTupleWeight {
                        relation: rel.clone(),
                        row: row.clone(),
                        weight: (w * 1.25).clamp(1e-3, 64.0),
                    });
                }
                ScheduledBatch {
                    structural: false,
                    batch,
                }
            } else {
                let (student, advisor) = loop {
                    let s = data.students[rng.below(data.students.len())];
                    let a = data.advisors[rng.below(data.advisors.len())];
                    if pairs.insert((s, a)) {
                        break (s, a);
                    }
                };
                let row = vec![Value::int(student), Value::int(advisor)];
                ScheduledBatch {
                    structural: true,
                    batch: UpdateBatch::new().insert("Advisor", row, 1.5),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> DblpDataset {
        DblpDataset::generate(DblpConfig {
            with_affiliation_view: false,
            seed,
            ..DblpConfig::with_authors(96)
        })
        .expect("small corpus")
    }

    fn describe(schedule: &[ScheduledBatch]) -> Vec<String> {
        schedule
            .iter()
            .map(|b| format!("{} {:?}", b.structural, b.batch.ops()))
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_schedule_and_order() {
        let data = small(7);
        let a = update_schedule(&data, 12, 99);
        let b = update_schedule(&small(7), 12, 99);
        assert_eq!(describe(&a), describe(&b));
        assert_eq!(query_order(500, 3), query_order(500, 3));
    }

    #[test]
    fn different_seeds_give_different_schedules_and_orders() {
        let data = small(7);
        assert_ne!(
            describe(&update_schedule(&data, 12, 1)),
            describe(&update_schedule(&data, 12, 2))
        );
        assert_ne!(query_order(500, 1), query_order(500, 2));
    }

    #[test]
    fn schedule_alternates_kinds_and_never_repeats_an_insert() {
        let data = small(5);
        let schedule = update_schedule(&data, 20, 11);
        let mut inserted = BTreeSet::new();
        for (k, b) in schedule.iter().enumerate() {
            assert_eq!(b.structural, k % 2 == 1);
            match b.batch.ops() {
                [UpdateOp::InsertTuple { relation, row, .. }] => {
                    assert_eq!(relation, "Advisor");
                    assert!(inserted.insert(row.clone()), "repeated insert {row:?}");
                }
                ops => {
                    assert_eq!(ops.len(), WEIGHT_NUDGES);
                    assert!(ops
                        .iter()
                        .all(|op| matches!(op, UpdateOp::SetTupleWeight { .. })));
                }
            }
        }
    }

    #[test]
    fn query_order_is_a_permutation() {
        let mut order = query_order(1000, 42);
        order.sort_unstable();
        assert_eq!(order, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn query_texts_parse_back_to_themselves() {
        let data = small(3);
        for w in [Workload::Point, Workload::Broad] {
            let texts = query_texts(&data, w);
            assert!(!texts.is_empty());
            for t in texts {
                let q = mv_query::parse_ucq(&t).expect("query text parses");
                assert_eq!(q.to_string(), t);
            }
        }
    }
}
