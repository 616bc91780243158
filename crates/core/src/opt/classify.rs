//! Query scaling classes (§2, Figure 1).
//!
//! * **Class I (Constant)** — the data a query touches is constant
//!   regardless of database size: pk lookups, fixed LIMITs without joins,
//!   joins against unique primary keys.
//! * **Class II (Bounded)** — touched data grows but is capped by explicit
//!   relationship-cardinality constraints (or declared parameter maxima).
//! * **Class III (Linear)** — touched data grows linearly (one unbounded
//!   scan or join fan-out).
//! * **Class IV (Super-linear)** — intermediate results grow faster than
//!   the database (two or more unbounded operators compounding, e.g. a self
//!   cartesian product).
//!
//! A success-tolerant application may only ship Class I and II queries.

use crate::plan::physical::PhysicalPlan;
use crate::plan::Provenance;
use std::fmt;

/// The four classes of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryClass {
    Constant,
    Bounded,
    Linear,
    SuperLinear,
}

impl QueryClass {
    /// The class a finished plan earns, read from the provenance of every
    /// operator's [`PhysicalPlan::justified_limit`]: each statistics
    /// estimate is a remote operator without a static bound; with none, a
    /// limit resting on a declared cardinality or parameter maximum makes
    /// the plan Class II, and primary keys and `LIMIT`/`PAGINATE` alone
    /// make it Class I.
    pub(crate) fn of(plan: &PhysicalPlan) -> QueryClass {
        let (mut unbounded, mut declared) = (0, false);
        plan.walk(&mut |op| match op.justified_limit() {
            Some((_, Provenance::Estimate)) => unbounded += 1,
            Some((_, p)) => declared |= p.is_cardinality_bound(),
            None => {}
        });
        match (unbounded, declared) {
            (0, false) => QueryClass::Constant,
            (0, true) => QueryClass::Bounded,
            (1, _) => QueryClass::Linear,
            (_, _) => QueryClass::SuperLinear,
        }
    }

    /// Scale-independent queries are exactly Classes I and II.
    pub fn is_scale_independent(self) -> bool {
        matches!(self, QueryClass::Constant | QueryClass::Bounded)
    }

    /// Why the class was assigned, in terms of the evidence it is read
    /// from (each operator's [`PhysicalPlan::justified_limit`]) — the
    /// derivation line audit reports attach to the root of the bound tree.
    pub fn derivation(self) -> &'static str {
        match self {
            QueryClass::Constant => {
                "every remote operator is statically bounded by a primary key, \
                 LIMIT, or PAGINATE clause alone"
            }
            QueryClass::Bounded => {
                "every remote operator is statically bounded, and at least one \
                 bound rests on a declared relationship cardinality or \
                 parameter maximum"
            }
            QueryClass::Linear => {
                "exactly one remote operator has no static bound; the data \
                 touched grows linearly with the database"
            }
            QueryClass::SuperLinear => {
                "two or more remote operators have no static bound; \
                 intermediate results compound faster than the database grows"
            }
        }
    }
}

impl fmt::Display for QueryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            QueryClass::Constant => "Class I (constant)",
            QueryClass::Bounded => "Class II (bounded)",
            QueryClass::Linear => "Class III (linear)",
            QueryClass::SuperLinear => "Class IV (super-linear)",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_independence_is_classes_i_and_ii() {
        assert!(QueryClass::Constant.is_scale_independent());
        assert!(QueryClass::Bounded.is_scale_independent());
        assert!(!QueryClass::Linear.is_scale_independent());
        assert!(!QueryClass::SuperLinear.is_scale_independent());
    }
}
