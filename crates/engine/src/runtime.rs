//! The shared serving runtime: one long-lived [`Engine`], one writer
//! and the published epoch, safe to share by reference across any
//! number of reader threads.
//!
//! The serving problem: many concurrent readers, few writers, and the
//! paper's closure guarantee (§1.1) making each read cheap — so
//! throughput must be bounded by *pinning* a consistent state, never by
//! copying it. A [`Runtime`] owns the single writer path (a
//! [`MaterializedView`] maintaining the IDB incrementally, behind one
//! mutex) and publishes an immutable epoch after every effective commit:
//!
//! * **One engine.** The writer's view builds the engine (executor,
//!   interner, QE cache) and the readers share it, so the whole runtime
//!   has one interner and one QE cache, and [`Runtime::gauges`] reports
//!   all of its state. Both are sharded and lock-striped internally, and
//!   the plan and atom caches inside the view are keyed by relation
//!   content version — the same ids that define epochs — so concurrent
//!   readers share every cache without invalidating each other.
//! * **Pinning is O(1).** An epoch is one `Arc`; [`Runtime::pin`] clones
//!   it under a short lock with no allocation, and a [`Snapshot`] is that
//!   clone. No tuple, index or bucket is copied, and an epoch's readers
//!   are its strong count.
//! * **Commits share unchanged segments.** `GenRelation` tuple storage
//!   is itself `Arc`-shared copy-on-write (see
//!   [`GenRelation::shares_store`]), so the database published at epoch
//!   `n+1` shares every unchanged relation's segment with epoch `n`;
//!   only the relations the commit actually touched carry new storage,
//!   and those were rebuilt by the *incremental* maintenance path, not
//!   by a fixpoint from scratch. A relation no rule reads is a store of
//!   the view like any other EDB relation, updated in zero delta rounds.
//! * **Epochs are content versions.** An epoch's id is the maximum
//!   [`GenRelation::version`] across its relations. Versions come from a
//!   process-global monotone counter and every effective commit bumps at
//!   least one relation, so epoch ids strictly increase across effective
//!   commits — and a no-op commit (duplicate insert) keeps the current
//!   epoch, which is exactly right: readers cannot distinguish the
//!   states. Derived caches (summary tries, join-plan atom data) keyed by
//!   relation version therefore remain valid across epochs for every
//!   untouched relation.
//!
//! Snapshot isolation holds by construction: a published database is
//! never mutated (the writer's next commit copies-on-write into fresh
//! segments), so a reader's pinned epoch is byte-identical to the
//! serial state after the commit that published it — the concurrency
//! test in `tests/snapshot_isolation.rs` races 8 readers against a
//! committing writer across 100 epochs to pin this.
//!
//! ```text
//! writers ──▶ Runtime::insert/retract                (serialized)
//!                │  incremental delta propagation
//!                ▼
//!            publish(epoch n+1)      ── Arc swap ──▶ published
//!                                                      │
//! readers ──▶ Runtime::pin() ── O(1) Arc clone ────────┘
//!                │
//!                ▼
//!            query / contains_point against the pinned epoch
//!            (shared interner + QE cache + executor)
//! ```

use crate::algebra;
use crate::datalog::{FixpointOptions, Program};
use crate::trace::UpdateStats;
use crate::{Engine, MaterializedView};
use cql_core::error::Result;
use cql_core::relation::{Database, GenRelation, GenTuple};
use cql_core::theory::Theory;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// One published state: its id and the full database (EDB and
/// maintained IDB).
struct Epoch<T: Theory> {
    id: u64,
    db: Database<T>,
}

/// An immutable view of the database at one published epoch.
///
/// A clone of the epoch's `Arc`: cheap to clone, and the epoch counts
/// as pinned in [`Runtime::gauges`] until every clone is dropped. The
/// data is genuinely immutable — the writer's next commit
/// copies-on-write into fresh segments — so any evaluation against the
/// snapshot observes one consistent state regardless of concurrent
/// commits.
pub struct Snapshot<T: Theory>(Arc<Epoch<T>>);

impl<T: Theory> Clone for Snapshot<T> {
    fn clone(&self) -> Self {
        Snapshot(Arc::clone(&self.0))
    }
}

impl<T: Theory> Snapshot<T> {
    /// The epoch id: the maximum relation content version in this
    /// snapshot. Strictly increases across effective commits.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.0.id
    }

    /// The full database (EDB and maintained IDB) at this epoch.
    #[must_use]
    pub fn db(&self) -> &Database<T> {
        &self.0.db
    }

    /// One relation of the snapshot.
    ///
    /// # Errors
    /// `CqlError::UnknownRelation` if absent.
    pub fn relation(&self, name: &str) -> Result<&GenRelation<T>> {
        self.0.db.require(name)
    }
}

impl<T: Theory> std::fmt::Debug for Snapshot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Snapshot(epoch={}, relations={})", self.0.id, self.0.db.len())
    }
}

/// A long-lived evaluation context shared by every tenant and thread:
/// the engine (executor, interner, QE cache), the writer and the
/// published epoch. See the module docs.
pub struct Runtime<T: Theory> {
    /// The writer view's engine, shared by the read path.
    engine: Arc<Engine<T>>,
    /// Writer state: commits serialize on this lock. Readers never take
    /// it.
    view: Mutex<MaterializedView<T>>,
    /// A short lock around an `Arc` clone, so `pin` never blocks behind
    /// a commit's solver work (commits take it only for the final
    /// pointer swap).
    published: Mutex<Published<T>>,
    commits: AtomicU64,
}

struct Published<T: Theory> {
    current: Arc<Epoch<T>>,
    /// Superseded epochs that still had readers when last looked at,
    /// each with the commit count before the commit that superseded it.
    /// Epoch ids are relation versions, not a dense sequence, so an
    /// epoch's age is measured in commits from here.
    superseded: Vec<(Weak<Epoch<T>>, u64)>,
}

impl<T: Theory> Runtime<T> {
    /// Materialize `program` over `edb` under `opts` and publish the
    /// initial epoch. The engine uses the options' thread count and
    /// policy.
    ///
    /// # Errors
    /// As [`MaterializedView::new`].
    pub fn new(program: Program<T>, edb: &Database<T>, opts: FixpointOptions) -> Result<Self> {
        let mut view = MaterializedView::new(program, edb, opts)?;
        let current = Arc::new(epoch(&mut view));
        Ok(Runtime {
            engine: Arc::clone(view.engine()),
            view: Mutex::new(view),
            published: Mutex::new(Published { current, superseded: Vec::new() }),
            commits: AtomicU64::new(0),
        })
    }

    /// The shared engine (interner, QE cache, executor).
    #[must_use]
    pub fn engine(&self) -> &Engine<T> {
        &self.engine
    }

    /// Pin the current epoch: one lock and a reference-count bump.
    pub fn pin(&self) -> Snapshot<T> {
        Snapshot(Arc::clone(&self.published().current))
    }

    /// The current epoch id (without pinning).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.published().current.id
    }

    /// Number of commits applied since construction.
    #[must_use]
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Assert one EDB tuple and publish the resulting epoch. Derived
    /// consequences are maintained incrementally (delta cone only), and
    /// unchanged relations keep their shared storage in the new epoch.
    ///
    /// # Errors
    /// As [`MaterializedView::insert`].
    pub fn insert(&self, relation: &str, tuple: GenTuple<T>) -> Result<UpdateStats> {
        self.commit(|view| view.insert(relation, tuple))
    }

    /// Retract one previously asserted EDB tuple and publish the
    /// resulting epoch.
    ///
    /// # Errors
    /// As [`MaterializedView::retract`].
    pub fn retract(&self, relation: &str, tuple: &GenTuple<T>) -> Result<UpdateStats> {
        self.commit(|view| view.retract(relation, tuple))
    }

    /// Select from one relation of a pinned snapshot: the tuples
    /// jointly satisfiable with `constraints`, canonicalized through
    /// the shared interner and summary-pruned before any solver call.
    ///
    /// # Errors
    /// `CqlError::UnknownRelation` if the relation is absent.
    pub fn query(
        &self,
        snapshot: &Snapshot<T>,
        relation: &str,
        constraints: &[T::Constraint],
    ) -> Result<GenRelation<T>> {
        Ok(algebra::select_with(&self.engine, snapshot.relation(relation)?, constraints))
    }

    /// Point-membership against a pinned snapshot (no solver work).
    ///
    /// # Errors
    /// `CqlError::UnknownRelation` if the relation is absent.
    pub fn contains_point(
        &self,
        snapshot: &Snapshot<T>,
        relation: &str,
        point: &[T::Value],
    ) -> Result<bool> {
        Ok(snapshot.relation(relation)?.satisfied_by(point))
    }

    /// All runtime gauges, as `(name, value)` rows: the engine rows
    /// ([`Engine::gauges`] — interner/QE-cache occupancy plus
    /// flight-recorder rings) followed by the snapshot rows — the
    /// current epoch, commit count, number of distinct epochs pinned by
    /// live readers, total pinned readers, and
    /// `snapshot_oldest_pinned_age_commits`, the commits published since
    /// the oldest still-pinned epoch was current (0 when no epoch older
    /// than the current one is pinned). Feed them to a
    /// [`crate::trace::TelemetryRegistry`] for Prometheus exposition.
    #[must_use]
    pub fn gauges(&self) -> Vec<(String, u64)> {
        let mut rows = self.engine.gauges();
        let commits = self.commits();
        let mut published = self.published();
        published.superseded.retain(|(epoch, _)| epoch.strong_count() > 0);
        // The published slot holds one reference to the current epoch.
        let current = Arc::strong_count(&published.current) - 1;
        let readers = published.superseded.iter().map(|(epoch, _)| epoch.strong_count());
        let oldest = published.superseded.iter().map(|&(_, at)| at).min();
        rows.extend([
            ("snapshot_epoch".to_string(), published.current.id),
            ("snapshot_commits".to_string(), commits),
            (
                "snapshot_live_epochs".to_string(),
                (published.superseded.len() + usize::from(current > 0)) as u64,
            ),
            ("snapshot_pinned_readers".to_string(), (current + readers.sum::<usize>()) as u64),
            (
                "snapshot_oldest_pinned_age_commits".to_string(),
                oldest.map_or(0, |at| commits.saturating_sub(at)),
            ),
        ]);
        rows
    }

    fn published(&self) -> std::sync::MutexGuard<'_, Published<T>> {
        self.published.lock().expect("published epoch poisoned")
    }

    /// Apply one update under the writer lock and publish its result. A
    /// commit that changes nothing keeps the current epoch's `Arc`.
    fn commit(
        &self,
        update: impl FnOnce(&mut MaterializedView<T>) -> Result<UpdateStats>,
    ) -> Result<UpdateStats> {
        let mut view = self.view.lock().expect("runtime writer poisoned");
        let stats = update(&mut view)?;
        let before = self.commits.fetch_add(1, Ordering::Relaxed);
        let next = epoch(&mut view);
        let superseded = {
            let mut published = self.published();
            if published.current.id == next.id {
                return Ok(stats);
            }
            let superseded = std::mem::replace(&mut published.current, Arc::new(next));
            published.superseded.retain(|(epoch, _)| epoch.strong_count() > 0);
            if Arc::strong_count(&superseded) > 1 {
                published.superseded.push((Arc::downgrade(&superseded), before));
            }
            superseded
        };
        // The last reference may free the old epoch's segments: outside
        // the lock.
        drop(superseded);
        Ok(stats)
    }
}

/// The view's full present database (maintained IDB + every EDB store)
/// as an epoch whose id is the maximum relation content version. Every
/// relation clone here is an `Arc` bump; unchanged relations share
/// storage with the previously published epoch.
fn epoch<T: Theory>(view: &mut MaterializedView<T>) -> Epoch<T> {
    let mut db = view.current().clone();
    for (name, rel) in view.edb() {
        db.insert(name, rel.clone());
    }
    let id = db.iter().map(|(_, rel)| rel.version()).max().unwrap_or(0);
    Epoch { id, db }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::{Atom, Literal, Rule};
    use cql_core::policy::{EnginePolicy, SubsumptionMode};
    use cql_dense::{Dense, DenseConstraint};
    use std::collections::BTreeMap;

    fn tc_program() -> Program<Dense> {
        Program::new(vec![
            Rule::new(Atom::new("T", vec![0, 1]), vec![Literal::Pos(Atom::new("E", vec![0, 1]))]),
            Rule::new(
                Atom::new("T", vec![0, 1]),
                vec![
                    Literal::Pos(Atom::new("T", vec![0, 2])),
                    Literal::Pos(Atom::new("E", vec![2, 1])),
                ],
            ),
        ])
    }

    fn edge(a: i64, b: i64) -> GenTuple<Dense> {
        GenTuple::new(vec![DenseConstraint::eq_const(0, a), DenseConstraint::eq_const(1, b)])
            .unwrap()
    }

    fn runtime() -> Runtime<Dense> {
        let mut db = Database::new();
        let mut e = GenRelation::empty(2);
        for i in 0..4 {
            e.insert(edge(i, i + 1));
        }
        db.insert("E", e);
        Runtime::new(tc_program(), &db, FixpointOptions::default()).unwrap()
    }

    /// Two edges plus a relation no rule reads.
    fn store() -> Runtime<Dense> {
        let mut db = Database::new();
        let mut e = GenRelation::empty(2);
        e.insert(edge(0, 1));
        e.insert(edge(1, 2));
        db.insert("E", e);
        let mut p = GenRelation::empty(1);
        p.insert(GenTuple::new(vec![DenseConstraint::eq_const(0, 7)]).unwrap());
        db.insert("Passthrough", p);
        Runtime::new(tc_program(), &db, FixpointOptions::default()).unwrap()
    }

    #[test]
    fn concurrent_readers_share_the_runtime() {
        let rt = Arc::new(runtime());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let rt = Arc::clone(&rt);
                std::thread::spawn(move || {
                    let snap = rt.pin();
                    let hits = rt
                        .query(
                            &snap,
                            "T",
                            &[DenseConstraint::eq_const(0, 0), DenseConstraint::eq_const(1, 4)],
                        )
                        .unwrap();
                    assert_eq!(hits.len(), 1);
                    let point = [cql_arith::Rat::from(0), cql_arith::Rat::from(3)];
                    assert!(rt.contains_point(&snap, "T", &point).unwrap());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn gauges_cover_engine_and_snapshot_rows() {
        let rt = runtime();
        let _pin = rt.pin();
        let names: Vec<String> = rt.gauges().into_iter().map(|(n, _)| n).collect();
        assert!(names.iter().any(|n| n == "interner_entries"));
        assert!(names.iter().any(|n| n == "snapshot_epoch"));
        assert!(names.iter().any(|n| n == "snapshot_pinned_readers"));
    }

    #[test]
    fn pinned_snapshot_is_immutable_across_commits() {
        let store = store();
        let before = store.pin();
        assert_eq!(before.relation("T").unwrap().len(), 3);
        store.insert("E", edge(2, 3)).unwrap();
        let after = store.pin();
        // The old pin still sees the old closure; the new pin the new one.
        assert_eq!(before.relation("T").unwrap().len(), 3);
        assert_eq!(after.relation("T").unwrap().len(), 6);
        assert!(after.epoch() > before.epoch(), "effective commits advance the epoch");
    }

    #[test]
    fn unchanged_relations_share_storage_across_epochs() {
        let store = store();
        let before = store.pin();
        store.insert("E", edge(2, 3)).unwrap();
        let after = store.pin();
        // The commit never touched the relation no rule reads: both
        // epochs share its COW segment. E and T changed: new segments.
        assert!(before
            .relation("Passthrough")
            .unwrap()
            .shares_store(after.relation("Passthrough").unwrap()));
        assert!(!before.relation("E").unwrap().shares_store(after.relation("E").unwrap()));
        assert_eq!(
            before.relation("Passthrough").unwrap().version(),
            after.relation("Passthrough").unwrap().version(),
        );
    }

    #[test]
    fn passthrough_relations_accept_updates_and_bump_the_epoch() {
        let store = store();
        let e0 = store.epoch();
        let t = GenTuple::new(vec![DenseConstraint::eq_const(0, 9)]).unwrap();
        store.insert("Passthrough", t.clone()).unwrap();
        assert!(store.epoch() > e0);
        assert_eq!(store.pin().relation("Passthrough").unwrap().len(), 2);
        store.retract("Passthrough", &t).unwrap();
        assert_eq!(store.pin().relation("Passthrough").unwrap().len(), 1);
        assert!(store.retract("Passthrough", &t).is_err(), "retracting absent tuple fails");
    }

    #[test]
    fn dedup_only_relations_no_rule_reads_are_published_without_a_copy() {
        let mut db = Database::new();
        db.insert("E", GenRelation::empty(2));
        let mut payload =
            GenRelation::with_policy(1, EnginePolicy::with_subsumption(SubsumptionMode::DedupOnly));
        for i in 0..16 {
            payload.insert(GenTuple::new(vec![DenseConstraint::eq_const(0, i)]).unwrap());
        }
        db.insert("Payload", payload);
        let rt = Runtime::new(tc_program(), &db, FixpointOptions::default()).unwrap();
        let published = rt.pin();
        assert!(published
            .relation("Payload")
            .unwrap()
            .shares_store(db.require("Payload").unwrap()));
    }

    #[test]
    fn pin_gauges_track_live_epochs_and_readers() {
        let store = store();
        let a = store.pin();
        let b = store.pin();
        store.insert("E", edge(2, 3)).unwrap();
        let c = store.pin();
        let rows: BTreeMap<String, u64> = store.gauges().into_iter().collect();
        assert_eq!(rows["snapshot_live_epochs"], 2);
        assert_eq!(rows["snapshot_pinned_readers"], 3);
        assert_eq!(rows["snapshot_oldest_pinned_age_commits"], 1);
        // A no-op commit keeps the current epoch but still ages the
        // superseded one; a second effective commit ages it again.
        store.insert("E", edge(2, 3)).unwrap();
        store.insert("E", edge(3, 4)).unwrap();
        assert_ne!(store.epoch(), c.epoch());
        let rows: BTreeMap<String, u64> = store.gauges().into_iter().collect();
        assert_eq!(rows["snapshot_oldest_pinned_age_commits"], 3);
        assert_eq!(rows.keys().filter(|k| k.starts_with("snapshot_")).count(), 5);
        drop(a);
        drop(b);
        let clone = c.clone();
        drop(c);
        let rows: BTreeMap<String, u64> = store.gauges().into_iter().collect();
        // The pinned epoch stays live until the last clone drops. `c`'s
        // epoch was last current after the no-op commit 2, one commit
        // ago.
        assert_eq!(rows["snapshot_live_epochs"], 1);
        assert_eq!(rows["snapshot_pinned_readers"], 1);
        assert_eq!(rows["snapshot_oldest_pinned_age_commits"], 1);
        drop(clone);
        let _current = store.pin();
        let rows: BTreeMap<String, u64> = store.gauges().into_iter().collect();
        assert_eq!(rows["snapshot_live_epochs"], 1);
        assert_eq!(rows["snapshot_oldest_pinned_age_commits"], 0);
    }

    #[test]
    fn noop_commit_keeps_the_epoch() {
        let store = store();
        let e0 = store.epoch();
        let before = store.pin();
        store.insert("E", edge(0, 1)).unwrap();
        assert_eq!(store.epoch(), e0, "a duplicate insert changes nothing observable");
        assert_eq!(store.commits(), 1);
        assert!(Arc::ptr_eq(&before.0, &store.pin().0), "a no-op commit keeps the epoch's Arc");
    }
}
