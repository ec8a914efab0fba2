//! Epoch-versioned copy-on-write snapshots of a maintained database.
//!
//! The serving problem: many concurrent readers, few writers, and the
//! paper's closure guarantee (§1.1) making each read cheap — so
//! throughput must be bounded by *pinning* a consistent state, never by
//! copying it. A [`SnapshotStore`] owns the single writer path (a
//! [`MaterializedView`] maintaining the IDB incrementally) and publishes
//! an immutable [`Snapshot`] after every commit:
//!
//! * **Pinning is O(1).** A published snapshot is an
//!   `Arc<Database<T>>`; [`SnapshotStore::pin`] clones the `Arc` under a
//!   short lock. No tuple, index or bucket is copied.
//! * **Commits share unchanged segments.** `GenRelation` tuple storage
//!   is itself `Arc`-shared copy-on-write (see
//!   [`GenRelation::shares_store`]), so the database published at epoch
//!   `n+1` shares every unchanged relation's segment with epoch `n`;
//!   only the relations the commit actually touched carry new storage,
//!   and those were rebuilt by the *incremental* maintenance path, not
//!   by a fixpoint from scratch.
//! * **Epochs are content versions.** A snapshot's epoch id is the
//!   maximum [`GenRelation::version`] across its relations. Versions
//!   come from a process-global monotone counter and every effective
//!   commit bumps at least one relation, so epochs strictly increase
//!   across effective commits — and a no-op commit (duplicate insert)
//!   keeps the epoch, which is exactly right: readers cannot
//!   distinguish the states. Derived caches (summary tries, join-plan
//!   atom data) keyed by relation version therefore remain valid across
//!   epochs for every untouched relation.
//!
//! Snapshot isolation holds by construction: a published database is
//! never mutated (the writer's next commit copies-on-write into fresh
//! segments), so a reader's pinned epoch is byte-identical to the
//! serial state after the commit that published it — the concurrency
//! test in `tests/snapshot_isolation.rs` races 8 readers against a
//! committing writer across 100 epochs to pin this.
//!
//! Relations that appear in the initial database but in no rule of the
//! program are *pass-through*: the store keeps them directly (dedup-only
//! compression, so retraction is exact) and updates to them publish a
//! new epoch without touching the view.

use crate::datalog::{FixpointOptions, Program};
use crate::trace::UpdateStats;
use crate::MaterializedView;
use cql_core::error::{CqlError, Result};
use cql_core::policy::{EnginePolicy, SubsumptionMode};
use cql_core::relation::{Database, GenRelation, GenTuple};
use cql_core::theory::Theory;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Pinned-reader accounting shared by a store and its snapshots, per
/// pinned epoch.
#[derive(Default)]
struct PinTable {
    pins: Mutex<BTreeMap<u64, EpochPins>>,
}

/// The live pins of one epoch.
#[derive(Default)]
struct EpochPins {
    readers: usize,
    /// The last commit count at which the epoch was current; `None`
    /// while it still is. Epoch ids are relation versions, not a dense
    /// sequence, so an epoch's age is measured in commits from here.
    last_current: Option<u64>,
}

/// Decrements the pin count of one epoch on drop. Cloned snapshots
/// share one guard, so a pin is counted once per [`SnapshotStore::pin`].
struct PinGuard {
    epoch: u64,
    table: Arc<PinTable>,
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        let mut pins = self.table.pins.lock().expect("pin table poisoned");
        if let Some(entry) = pins.get_mut(&self.epoch) {
            entry.readers -= 1;
            if entry.readers == 0 {
                pins.remove(&self.epoch);
            }
        }
    }
}

/// An immutable view of the database at one published epoch.
///
/// Cheap to clone (two `Arc` bumps); holds its epoch pinned in the
/// store's gauge accounting until every clone is dropped. The data is
/// genuinely immutable — the writer's next commit copies-on-write into
/// fresh segments — so any evaluation against the snapshot observes one
/// consistent state regardless of concurrent commits.
pub struct Snapshot<T: Theory> {
    epoch: u64,
    db: Arc<Database<T>>,
    _pin: Arc<PinGuard>,
}

impl<T: Theory> Clone for Snapshot<T> {
    fn clone(&self) -> Self {
        Snapshot { epoch: self.epoch, db: Arc::clone(&self.db), _pin: Arc::clone(&self._pin) }
    }
}

impl<T: Theory> Snapshot<T> {
    /// The epoch id: the maximum relation content version in this
    /// snapshot. Strictly increases across effective commits.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The full database (EDB and maintained IDB) at this epoch.
    #[must_use]
    pub fn db(&self) -> &Database<T> {
        &self.db
    }

    /// One relation of the snapshot.
    ///
    /// # Errors
    /// `CqlError::UnknownRelation` if absent.
    pub fn relation(&self, name: &str) -> Result<&GenRelation<T>> {
        self.db.require(name)
    }
}

impl<T: Theory> std::fmt::Debug for Snapshot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Snapshot(epoch={}, relations={})", self.epoch, self.db.len())
    }
}

/// The epoch-versioned store: one writer path (the incremental
/// [`MaterializedView`] plus pass-through relations) and an atomically
/// published current [`Snapshot`]. See the module docs.
pub struct SnapshotStore<T: Theory> {
    /// Writer state: commits serialize on this lock. Readers never take
    /// it.
    writer: Mutex<Writer<T>>,
    /// The published snapshot: a short lock around an `Arc` clone, so
    /// `pin` is O(1) and never blocks behind a commit's solver work
    /// (commits only take this lock for the final pointer swap).
    published: Mutex<Published<T>>,
    pins: Arc<PinTable>,
    commits: AtomicU64,
}

struct Writer<T: Theory> {
    view: MaterializedView<T>,
    /// Relations served verbatim because no rule mentions them.
    extra: BTreeMap<String, GenRelation<T>>,
}

struct Published<T: Theory> {
    epoch: u64,
    db: Arc<Database<T>>,
}

impl<T: Theory> SnapshotStore<T> {
    /// Materialize `program` over `edb` and publish the initial epoch.
    /// Relations of `edb` not mentioned by any rule are kept as
    /// pass-through relations (rebuilt dedup-only for exact retraction).
    ///
    /// # Errors
    /// As [`MaterializedView::new`].
    pub fn new(program: Program<T>, edb: &Database<T>, opts: FixpointOptions) -> Result<Self> {
        let known = program.arities()?;
        let passthrough_policy =
            EnginePolicy { subsumption: SubsumptionMode::DedupOnly, ..opts.policy };
        let mut extra = BTreeMap::new();
        let mut known_db = Database::new();
        for (name, rel) in edb.iter() {
            if known.contains_key(name) {
                known_db.insert(name, rel.clone());
            } else {
                let mut exact = GenRelation::with_policy(rel.arity(), passthrough_policy);
                for t in rel.tuples() {
                    exact.insert(t.clone());
                }
                extra.insert(name.to_string(), exact);
            }
        }
        let view = MaterializedView::new(program, &known_db, opts)?;
        let mut writer = Writer { view, extra };
        let (epoch, db) = assemble(&mut writer);
        Ok(SnapshotStore {
            writer: Mutex::new(writer),
            published: Mutex::new(Published { epoch, db }),
            pins: Arc::new(PinTable::default()),
            commits: AtomicU64::new(0),
        })
    }

    /// Pin the current epoch: O(1), returns an immutable [`Snapshot`].
    pub fn pin(&self) -> Snapshot<T> {
        let (epoch, db) = {
            let published = self.published.lock().expect("published snapshot poisoned");
            // Counted while the epoch is still current, so a commit that
            // supersedes it always finds the entry to stamp.
            let mut pins = self.pins.pins.lock().expect("pin table poisoned");
            pins.entry(published.epoch).or_default().readers += 1;
            (published.epoch, Arc::clone(&published.db))
        };
        Snapshot { epoch, db, _pin: Arc::new(PinGuard { epoch, table: Arc::clone(&self.pins) }) }
    }

    /// The current epoch id (without pinning).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.published.lock().expect("published snapshot poisoned").epoch
    }

    /// Assert one EDB tuple and publish the resulting epoch. Derived
    /// consequences are maintained incrementally (delta cone only), and
    /// unchanged relations keep their shared storage in the new epoch.
    ///
    /// # Errors
    /// As [`MaterializedView::insert`] for program relations; unknown
    /// relations are rejected.
    pub fn insert(&self, relation: &str, tuple: GenTuple<T>) -> Result<UpdateStats> {
        let mut writer = self.writer.lock().expect("snapshot writer poisoned");
        let stats = if let Some(rel) = writer.extra.get_mut(relation) {
            let started = std::time::Instant::now();
            rel.insert(tuple);
            passthrough_stats("insert", relation, started)
        } else {
            writer.view.insert(relation, tuple)?
        };
        self.publish(&mut writer);
        Ok(stats)
    }

    /// Retract one previously asserted EDB tuple and publish the
    /// resulting epoch.
    ///
    /// # Errors
    /// As [`MaterializedView::retract`] for program relations; unknown
    /// relations or absent tuples are rejected.
    pub fn retract(&self, relation: &str, tuple: &GenTuple<T>) -> Result<UpdateStats> {
        let mut writer = self.writer.lock().expect("snapshot writer poisoned");
        let stats = if let Some(rel) = writer.extra.get_mut(relation) {
            if !rel.remove(tuple) {
                return Err(CqlError::Malformed(format!(
                    "retract of a tuple not currently asserted in `{relation}`"
                )));
            }
            let started = std::time::Instant::now();
            passthrough_stats("retract", relation, started)
        } else {
            writer.view.retract(relation, tuple)?
        };
        self.publish(&mut writer);
        Ok(stats)
    }

    /// Number of commits applied since construction.
    #[must_use]
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Occupancy gauges, as `(name, value)` rows: the current epoch,
    /// commit count, number of distinct epochs still pinned by live
    /// readers, total pinned readers, and
    /// `snapshot_oldest_pinned_age_commits` — the commits published
    /// since the oldest still-pinned epoch was current (0 when no epoch
    /// older than the current one is pinned). Feed them to a
    /// [`crate::trace::TelemetryRegistry`] via `set_gauge` for
    /// Prometheus/JSON exposition.
    #[must_use]
    pub fn gauges(&self) -> Vec<(String, u64)> {
        let (epoch, commits) = (self.epoch(), self.commits());
        let pins = self.pins.pins.lock().expect("pin table poisoned");
        let oldest = pins.values().filter_map(|p| p.last_current).min();
        vec![
            ("snapshot_epoch".to_string(), epoch),
            ("snapshot_commits".to_string(), commits),
            ("snapshot_live_epochs".to_string(), pins.len() as u64),
            ("snapshot_pinned_readers".to_string(), pins.values().map(|p| p.readers as u64).sum()),
            (
                "snapshot_oldest_pinned_age_commits".to_string(),
                oldest.map_or(0, |at| commits.saturating_sub(at)),
            ),
        ]
    }

    /// Per-update EXPLAIN rows accumulated by the writer path.
    #[must_use]
    pub fn take_updates(&self) -> Vec<UpdateStats> {
        self.writer.lock().expect("snapshot writer poisoned").view.take_updates()
    }

    /// Assemble and publish the writer's current state as a snapshot.
    fn publish(&self, writer: &mut Writer<T>) {
        let (epoch, db) = assemble(writer);
        let before = self.commits.fetch_add(1, Ordering::Relaxed);
        let mut published = self.published.lock().expect("published snapshot poisoned");
        if published.epoch != epoch {
            let mut pins = self.pins.pins.lock().expect("pin table poisoned");
            if let Some(superseded) = pins.get_mut(&published.epoch) {
                superseded.last_current = Some(before);
            }
        }
        published.epoch = epoch;
        published.db = db;
    }
}

/// Compose the full database (EDB stores + maintained IDB antichain +
/// pass-through relations) and its epoch id. Every relation clone here
/// is an `Arc` bump; unchanged relations share storage with the
/// previously published epoch.
fn assemble<T: Theory>(writer: &mut Writer<T>) -> (u64, Arc<Database<T>>) {
    let mut db = writer.view.current().clone();
    for (name, rel) in writer.view.edb() {
        db.insert(name, rel.clone());
    }
    for (name, rel) in &writer.extra {
        db.insert(name.clone(), rel.clone());
    }
    let epoch = db.iter().map(|(_, rel)| rel.version()).max().unwrap_or(0);
    (epoch, Arc::new(db))
}

fn passthrough_stats(op: &str, relation: &str, started: std::time::Instant) -> UpdateStats {
    UpdateStats {
        op: op.to_string(),
        relation: relation.to_string(),
        delta_rounds: 0,
        rederivations: 0,
        support_adjust: 0,
        qe_calls: 0,
        entailment_checks: 0,
        wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::{Atom, Literal, Rule};
    use cql_dense::{Dense, DenseConstraint};

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

    fn store() -> SnapshotStore<Dense> {
        let mut db = Database::new();
        let mut e = GenRelation::empty(2);
        e.insert(edge(0, 1));
        e.insert(edge(1, 2));
        db.insert("E", e);
        let mut p = GenRelation::empty(1);
        p.insert(GenTuple::new(vec![DenseConstraint::eq_const(0, 7)]).unwrap());
        db.insert("Passthrough", p);
        SnapshotStore::new(tc_program(), &db, FixpointOptions::default()).unwrap()
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
        // The commit never touched the pass-through relation: both
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
        // Clones share one pin; the pinned epoch stays live until the
        // last clone drops. `c`'s epoch was last current after the no-op
        // commit 2, one commit ago.
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
        store.insert("E", edge(0, 1)).unwrap();
        assert_eq!(store.epoch(), e0, "a duplicate insert changes nothing observable");
        assert_eq!(store.commits(), 1);
    }
}
