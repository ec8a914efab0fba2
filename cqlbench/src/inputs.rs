//! The benchmark's own inputs and its correctness oracle.
//!
//! Everything the program under test receives is built here from the
//! seed, and every answer is checked against closed forms computed from
//! the chain's shape alone (never from the engine). The builders are
//! deliberately not shared with the repository's other harnesses, so
//! editing those cannot change what this benchmark measures.

use cql_arith::Rat;
use cql_core::relation::{Database, GenRelation, GenTuple};
use cql_dense::{Dense, DenseConstraint};
use cql_engine::datalog::{Atom, Literal, Program, Rule};
use cql_engine::{EnginePolicy, SubsumptionMode};
use std::collections::BTreeSet;

/// Input sizes. The full sizes are what `BENCHMARK.json` runs; the tiny
/// ones keep the unit tests under a few seconds.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Edges of the served chain `E(i, i+1)`, `i < chain`.
    pub chain: i64,
    /// Tuples of the pass-through relation no query reads.
    pub payload: i64,
    /// Edges of the chain the batch transitive closure runs on.
    pub tc_chain: i64,
    /// Edges of the chain the path-join program runs on.
    pub pj_chain: i64,
    /// Side of the path-join program's bipartite wedge EDB.
    pub wedge: i64,
    /// Open-loop commit rate of the `mixed_rw` writer.
    pub commit_hz: f64,
    /// Runtime set-ups per serving run; `setup_s` is their median.
    pub setups: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        chain: 64,
        payload: 32_768,
        tc_chain: 48,
        pj_chain: 24,
        wedge: 8,
        commit_hz: 10.0,
        setups: 9,
    };

    pub const TINY: Sizes = Sizes {
        chain: 8,
        payload: 64,
        tc_chain: 8,
        pj_chain: 6,
        wedge: 3,
        commit_hz: 1000.0,
        setups: 2,
    };
}

/// SplitMix64: a seedable generator with independent streams, so each
/// load-generating thread draws its own request sequence from the seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible here).
    pub fn below(&mut self, n: i64) -> i64 {
        (self.next_u64() % n as u64) as i64
    }
}

/// One served read against the closure `T` of the chain `0 → 1 → … → n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Read {
    /// `T(a, b)`, `a < b`: exactly one answer.
    Point { a: i64, b: i64 },
    /// `T(a, y)`: the `n − a` pairs `(a, y)`, `a < y ≤ n`.
    From { a: i64 },
    /// `T(x, b)`: the `b` pairs `(x, b)`, `0 ≤ x < b`.
    To { b: i64 },
}

impl Read {
    /// A point read on the chain with `n` edges.
    pub fn point(rng: &mut Rng, n: i64) -> Read {
        let a = rng.below(n);
        let b = a + 1 + rng.below(n - a);
        Read::Point { a, b }
    }

    /// A range read binding column 0 or column 1, half each.
    pub fn range(rng: &mut Rng, n: i64) -> Read {
        if rng.next_u64() & 1 == 0 {
            Read::From { a: rng.below(n) }
        } else {
            Read::To { b: 1 + rng.below(n) }
        }
    }

    /// The selection constraints sent to the program.
    pub fn constraints(self) -> Vec<DenseConstraint> {
        match self {
            Read::Point { a, b } => {
                vec![DenseConstraint::eq_const(0, a), DenseConstraint::eq_const(1, b)]
            }
            Read::From { a } => vec![DenseConstraint::eq_const(0, a)],
            Read::To { b } => vec![DenseConstraint::eq_const(1, b)],
        }
    }

    /// The closed-form answer on the chain with `n` edges.
    pub fn expected(self, n: i64) -> BTreeSet<(i64, i64)> {
        match self {
            Read::Point { a, b } => BTreeSet::from([(a, b)]),
            Read::From { a } => (a + 1..=n).map(|y| (a, y)).collect(),
            Read::To { b } => (0..b).map(|x| (x, b)).collect(),
        }
    }
}

/// The pinned binary tuple `x0 = a ∧ x1 = b`.
pub fn pair(a: i64, b: i64) -> GenTuple<Dense> {
    GenTuple::new(vec![DenseConstraint::eq_const(0, a), DenseConstraint::eq_const(1, b)])
        .expect("a point is satisfiable")
}

/// `E(i, i+1)` for `i < n`, inserted in `order` (a permutation of
/// `0..n`).
pub fn chain(order: &[i64]) -> GenRelation<Dense> {
    GenRelation::from_conjunctions(
        2,
        order
            .iter()
            .map(|&i| vec![DenseConstraint::eq_const(0, i), DenseConstraint::eq_const(1, i + 1)]),
    )
}

/// `0..n` shuffled by the seed (Fisher–Yates).
pub fn shuffled(n: i64, rng: &mut Rng) -> Vec<i64> {
    let mut order: Vec<i64> = (0..n).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as i64 + 1) as usize);
    }
    order
}

/// The served EDB: the chain plus a pass-through `Payload` of pinned
/// unary tuples that no rule and no query reads, so per-epoch costs that
/// scale with the whole database (rather than the touched relations)
/// show up.
pub fn served_edb(sizes: &Sizes) -> Database<Dense> {
    let mut db = Database::new();
    db.insert("E", chain(&(0..sizes.chain).collect::<Vec<_>>()));
    let mut payload =
        GenRelation::with_policy(1, EnginePolicy::with_subsumption(SubsumptionMode::DedupOnly));
    for i in 0..sizes.payload {
        payload.insert(GenTuple::new(vec![DenseConstraint::eq_const(0, i)]).expect("a point"));
    }
    db.insert("Payload", payload);
    db
}

fn atom(name: &str, vars: &[usize]) -> Literal<Dense> {
    Literal::Pos(Atom::new(name, vars.to_vec()))
}

/// Transitive closure: `T(x,y) ← E(x,y)`; `T(x,y) ← T(x,z), E(z,y)`.
pub fn tc_program() -> Program<Dense> {
    Program::new(vec![
        Rule::new(Atom::new("T", vec![0, 1]), vec![atom("E", &[0, 1])]),
        Rule::new(Atom::new("T", vec![0, 1]), vec![atom("T", &[0, 2]), atom("E", &[2, 1])]),
    ])
}

/// Wide rule bodies with real join variables:
/// * `T(x,w) ← E(x,w)`; `T(x,w) ← T(x,y), E(y,z), E(z,w)` — odd-distance
///   reachability;
/// * `Q(x,v) ← E(x,y), E(y,z), E(z,w), E(w,v)` — distance-4 pairs;
/// * `P(x,u) ← E(x,y), T(y,z), E(z,w), T(w,v), E(v,u)` — odd distances
///   of at least 5;
/// * `W(x,z) ← R(x,y), S(y,z), C(z,x)` — triangle closing over the
///   wedge: `m³` wedges, `m` answers.
pub fn path_join_program() -> Program<Dense> {
    Program::new(vec![
        Rule::new(Atom::new("T", vec![0, 1]), vec![atom("E", &[0, 1])]),
        Rule::new(
            Atom::new("T", vec![0, 3]),
            vec![atom("T", &[0, 1]), atom("E", &[1, 2]), atom("E", &[2, 3])],
        ),
        Rule::new(
            Atom::new("Q", vec![0, 4]),
            vec![atom("E", &[0, 1]), atom("E", &[1, 2]), atom("E", &[2, 3]), atom("E", &[3, 4])],
        ),
        Rule::new(
            Atom::new("P", vec![0, 5]),
            vec![
                atom("E", &[0, 1]),
                atom("T", &[1, 2]),
                atom("E", &[2, 3]),
                atom("T", &[3, 4]),
                atom("E", &[4, 5]),
            ],
        ),
        Rule::new(
            Atom::new("W", vec![0, 2]),
            vec![atom("R", &[0, 1]), atom("S", &[1, 2]), atom("C", &[2, 0])],
        ),
    ])
}

/// The path-join EDB: the chain in `order` plus the wedge `R`, `S`
/// (complete bipartite over `0..m`) and `C` (the diagonal).
pub fn path_join_edb(order: &[i64], m: i64) -> Database<Dense> {
    let grid = || {
        (0..m).flat_map(move |a| {
            (0..m).map(move |b| {
                vec![DenseConstraint::eq_const(0, a), DenseConstraint::eq_const(1, b)]
            })
        })
    };
    let mut db = Database::new();
    db.insert("E", chain(order));
    db.insert("R", GenRelation::from_conjunctions(2, grid()));
    db.insert("S", GenRelation::from_conjunctions(2, grid()));
    db.insert(
        "C",
        GenRelation::from_conjunctions(
            2,
            (0..m).map(|i| vec![DenseConstraint::eq_const(0, i), DenseConstraint::eq_const(1, i)]),
        ),
    );
    db
}

/// Pairs `(i, j)`, `0 ≤ i < j ≤ n`, whose distance `j − i` passes `keep`.
pub fn chain_pairs(n: i64, keep: impl Fn(i64) -> bool) -> BTreeSet<(i64, i64)> {
    (0..=n).flat_map(|i| (i + 1..=n).map(move |j| (i, j))).filter(|&(i, j)| keep(j - i)).collect()
}

/// The closure of the `n`-edge chain: `n(n+1)/2` pairs.
pub fn closure(n: i64) -> BTreeSet<(i64, i64)> {
    chain_pairs(n, |_| true)
}

/// The closed-form IDB of [`path_join_program`] over a chain of `n`
/// edges and an `m`-wedge, by predicate.
pub fn path_join_expected(n: i64, m: i64) -> [(&'static str, BTreeSet<(i64, i64)>); 4] {
    [
        ("T", chain_pairs(n, |d| d % 2 == 1)),
        ("Q", chain_pairs(n, |d| d == 4)),
        ("P", chain_pairs(n, |d| d % 2 == 1 && d >= 5)),
        ("W", (0..m).map(|i| (i, i)).collect()),
    ]
}

/// The single point `(a, b)` a binary tuple denotes, decided by direct
/// evaluation: the tuple must hold at `(a, b)`, built from its own
/// integer constants, and at none of the eight points half a unit away
/// along the axes and diagonals. Dense-order constraints only bound a
/// coordinate or compare the two, so a tuple that is more than a point
/// contains one of those neighbours.
pub fn pinned_pair(tuple: &GenTuple<Dense>) -> Option<(i64, i64)> {
    let consts: BTreeSet<i64> = tuple
        .constants()
        .iter()
        .map(|c| c.is_integer().then(|| c.to_f64() as i64))
        .collect::<Option<_>>()?;
    let holds = |x: Rat, y: Rat| tuple.satisfied_by(&[x, y]);
    let half = Rat::frac(1, 2);
    let steps = [-&half, Rat::zero(), half.clone()];
    let mut found = None;
    for &a in &consts {
        for &b in &consts {
            let (x, y) = (Rat::from(a), Rat::from(b));
            if !holds(x.clone(), y.clone()) {
                continue;
            }
            let neighbour = steps.iter().any(|dx| {
                steps.iter().any(|dy| !(dx.is_zero() && dy.is_zero()) && holds(&x + dx, &y + dy))
            });
            if neighbour || found.replace((a, b)).is_some() {
                return None;
            }
        }
    }
    found
}

/// Does `rel` hold exactly the points `expected`, one tuple each?
pub fn holds_exactly(rel: &GenRelation<Dense>, expected: &BTreeSet<(i64, i64)>) -> bool {
    if rel.len() != expected.len() {
        return false;
    }
    let mut seen = BTreeSet::new();
    rel.tuples()
        .iter()
        .all(|t| pinned_pair(t).is_some_and(|p| expected.contains(&p) && seen.insert(p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_points_and_rejects_regions() {
        assert_eq!(pinned_pair(&pair(3, 7)), Some((3, 7)));
        assert_eq!(pinned_pair(&pair(2, 2)), Some((2, 2)));
        let line = GenTuple::<Dense>::new(vec![DenseConstraint::eq_const(0, 3)]).unwrap();
        assert_eq!(pinned_pair(&line), None);
        let diagonal = GenTuple::<Dense>::new(vec![
            DenseConstraint::eq(0, 1),
            DenseConstraint::ge_const(0, 1),
            DenseConstraint::le_const(0, 1),
        ])
        .unwrap();
        assert_eq!(pinned_pair(&diagonal), Some((1, 1)), "x = y = 1 is a point");
        let half_open = GenTuple::<Dense>::new(vec![
            DenseConstraint::eq(0, 1),
            DenseConstraint::ge_const(0, 1),
        ])
        .unwrap();
        assert_eq!(pinned_pair(&half_open), None);
    }

    #[test]
    fn closed_forms_have_the_documented_sizes() {
        assert_eq!(closure(64).len(), 2080);
        assert_eq!(closure(48).len(), 1176);
        let pj = path_join_expected(24, 8);
        let sizes: Vec<usize> = pj.iter().map(|(_, s)| s.len()).collect();
        assert_eq!(sizes, [156, 21, 110, 8]);
        assert_eq!(Read::From { a: 10 }.expected(64).len(), 54);
        assert_eq!(Read::To { b: 10 }.expected(64).len(), 10);
    }

    #[test]
    fn seeded_streams_repeat_and_differ() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..64).map(|_| Read::range(&mut rng, 64)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        let mut a = Rng::new(7, 0);
        let mut b = Rng::new(8, 0);
        assert_ne!(shuffled(48, &mut a), shuffled(48, &mut b));
    }
}
