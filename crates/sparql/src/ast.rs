//! Abstract syntax tree for the SPARQL subset.

use lodify_rdf::Term;

/// A variable name (without the leading `?`/`$`).
pub type VarName = String;

/// Query forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryForm {
    /// `SELECT …` — a solution sequence.
    Select,
    /// `ASK …` — does any solution exist? (The paper's per-resource
    /// validation "quer\[ies\] the SPARQL endpoint to check whether they
    /// contain an actual binding" — an ASK.)
    Ask,
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// SELECT or ASK.
    pub form: QueryForm,
    /// Projection.
    pub select: Select,
    /// The WHERE group.
    pub where_clause: Group,
    /// GROUP BY variables (extension; empty when absent).
    pub group_by: Vec<VarName>,
    /// ORDER BY keys, outermost first.
    pub order_by: Vec<OrderKey>,
    /// LIMIT, if present.
    pub limit: Option<usize>,
    /// OFFSET, if present.
    pub offset: Option<usize>,
}

/// The SELECT clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Whether DISTINCT was requested.
    pub distinct: bool,
    /// Projected items.
    pub projection: Projection,
}

/// Projection shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *` — all visible variables, in first-seen order.
    All,
    /// Explicit items (`?v` or `COUNT(…) AS ?v`).
    Items(Vec<ProjectionItem>),
}

/// A single projected item.
#[derive(Debug, Clone, PartialEq)]
pub enum ProjectionItem {
    /// Plain variable.
    Var(VarName),
    /// `(COUNT(*) AS ?alias)` or `(COUNT(?v) AS ?alias)` — the
    /// aggregation extension used by the experiment harness.
    Count {
        /// Counted variable; `None` means `COUNT(*)`.
        var: Option<VarName>,
        /// Whether `COUNT(DISTINCT …)`.
        distinct: bool,
        /// Output variable name.
        alias: VarName,
    },
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression.
    pub expr: Expr,
    /// True for DESC.
    pub descending: bool,
}

/// A group graph pattern: ordered elements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Group {
    /// Elements in syntactic order.
    pub elements: Vec<Element>,
}

/// One element of a group pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// A triple pattern.
    Triple(TriplePattern),
    /// A FILTER constraint (applies to the whole group).
    Filter(Expr),
    /// OPTIONAL { … }.
    Optional(Group),
    /// { … } UNION { … } (two or more branches).
    Union(Vec<Group>),
    /// A plain nested group `{ … }`.
    SubGroup(Group),
    /// A nested `{ SELECT … }` subquery.
    SubSelect(Box<Query>),
}

/// Subject/predicate/object slot: variable or constant term.
#[derive(Debug, Clone, PartialEq)]
pub enum TermOrVar {
    /// A variable.
    Var(VarName),
    /// A constant RDF term.
    Term(Term),
}

impl TermOrVar {
    /// The variable name, if this is a variable slot.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            TermOrVar::Var(v) => Some(v),
            TermOrVar::Term(_) => None,
        }
    }
}

/// A triple pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct TriplePattern {
    /// Subject slot.
    pub subject: TermOrVar,
    /// Predicate slot.
    pub predicate: TermOrVar,
    /// Object slot.
    pub object: TermOrVar,
}

impl TriplePattern {
    /// Iterates the variables mentioned by this pattern.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        [&self.subject, &self.predicate, &self.object]
            .into_iter()
            .filter_map(|t| t.as_var())
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Logical and (`&&`).
    And,
    /// Logical or (`||`).
    Or,
    /// Equality (`=`).
    Eq,
    /// Inequality (`!=`).
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// Filter / projection expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Variable reference.
    Var(VarName),
    /// Constant term (IRI or literal).
    Const(Term),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `expr IN (e1, e2, …)`.
    In(Box<Expr>, Vec<Expr>),
    /// Function call; name is lower-cased and namespace-qualified for
    /// `bif:` functions (e.g. `bif:st_intersects`).
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Collects variables referenced by the expression into `out`.
    pub fn collect_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Var(v) => out.push(v),
            Expr::Const(_) => {}
            Expr::Binary(_, l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.collect_vars(out),
            Expr::In(e, list) => {
                e.collect_vars(out);
                for item in list {
                    item.collect_vars(out);
                }
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_vars_skip_constants() {
        let p = TriplePattern {
            subject: TermOrVar::Var("s".into()),
            predicate: TermOrVar::Term(Term::iri_unchecked("http://p")),
            object: TermOrVar::Var("o".into()),
        };
        let vars: Vec<_> = p.vars().collect();
        assert_eq!(vars, vec!["s", "o"]);
    }

    #[test]
    fn expr_collect_vars_walks_every_arm() {
        let e = Expr::Binary(
            BinOp::And,
            Box::new(Expr::Not(Box::new(Expr::Var("a".into())))),
            Box::new(Expr::In(
                Box::new(Expr::Var("b".into())),
                vec![Expr::Call("lang".into(), vec![Expr::Var("c".into())])],
            )),
        );
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars, vec!["a", "b", "c"]);
    }
}
