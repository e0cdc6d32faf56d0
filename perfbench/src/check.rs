//! Output checks that share no code with the solver's automata algorithms.
//!
//! Constant machines are read only through their structure (states,
//! labelled edges, ε-edges) and run by the set-of-states simulation below;
//! nothing here calls the product, inclusion, determinization or
//! minimization code whose results it checks.

use dprle_automata::Nfa;
use dprle_core::{Assignment, Expr, System, VarId};
use std::collections::BTreeMap;

/// A constant machine in the benchmark's own adjacency form.
pub struct Machine {
    start: usize,
    finals: Vec<bool>,
    /// Per state: `(byte class, target)` edges.
    edges: Vec<Vec<(dprle_automata::ByteClass, usize)>>,
    eps: Vec<Vec<usize>>,
}

impl Machine {
    pub fn new(nfa: &Nfa) -> Machine {
        let n = nfa.num_states();
        let mut finals = vec![false; n];
        for f in nfa.finals() {
            finals[f.index()] = true;
        }
        let mut edges = vec![Vec::new(); n];
        for (from, class, to) in nfa.edges() {
            edges[from.index()].push((class, to.index()));
        }
        let mut eps = vec![Vec::new(); n];
        for (from, to) in nfa.eps_edges() {
            eps[from.index()].push(to.index());
        }
        Machine {
            start: nfa.start().index(),
            finals,
            edges,
            eps,
        }
    }

    fn close(&self, set: &mut [bool]) {
        let mut stack: Vec<usize> = (0..set.len()).filter(|&s| set[s]).collect();
        while let Some(s) = stack.pop() {
            for &t in &self.eps[s] {
                if !set[t] {
                    set[t] = true;
                    stack.push(t);
                }
            }
        }
    }

    /// Whether the machine accepts `word`.
    pub fn accepts(&self, word: &[u8]) -> bool {
        let n = self.finals.len();
        let mut cur = vec![false; n];
        cur[self.start] = true;
        self.close(&mut cur);
        for &b in word {
            let mut next = vec![false; n];
            let mut any = false;
            for s in (0..n).filter(|&s| cur[s]) {
                for (class, t) in &self.edges[s] {
                    if class.contains(b) {
                        next[*t] = true;
                        any = true;
                    }
                }
            }
            if !any {
                return false;
            }
            self.close(&mut next);
            cur = next;
        }
        (0..n).any(|s| cur[s] && self.finals[s])
    }
}

/// A system's constraints with the benchmark's own copies of the constant
/// machines: `(variables of the left side in order, constant)`.
pub struct Constraints {
    rows: Vec<(Vec<VarId>, usize)>,
    machines: Vec<Machine>,
}

fn lhs_vars(e: &Expr, out: &mut Vec<VarId>) -> Result<(), String> {
    match e {
        Expr::Var(v) => out.push(*v),
        Expr::Concat(a, b) => {
            lhs_vars(a, out)?;
            lhs_vars(b, out)?;
        }
        other => return Err(format!("checker handles var/concat sides only: {other:?}")),
    }
    Ok(())
}

impl Constraints {
    pub fn new(system: &System) -> Result<Constraints, String> {
        let mut index: BTreeMap<u32, usize> = BTreeMap::new();
        let mut machines = Vec::new();
        let mut rows = Vec::new();
        for c in system.constraints() {
            let mut vars = Vec::new();
            lhs_vars(&c.lhs, &mut vars)?;
            let m = *index.entry(c.rhs.0).or_insert_with(|| {
                machines.push(Machine::new(system.const_machine(c.rhs)));
                machines.len() - 1
            });
            rows.push((vars, m));
        }
        Ok(Constraints { rows, machines })
    }

    /// Whether the tuple `words` (indexed by variable) satisfies every
    /// constraint.
    pub fn satisfied_by(&self, words: &[Vec<u8>]) -> bool {
        self.rows.iter().all(|(vars, m)| {
            let word: Vec<u8> = vars
                .iter()
                .flat_map(|v| words[v.0 as usize].iter().copied())
                .collect();
            self.machines[*m].accepts(&word)
        })
    }

    /// Searches every tuple of words over `alphabet` up to `max_len` per
    /// variable for one that satisfies the system. Single-variable
    /// constraints prune each variable's candidates first.
    pub fn brute_force(
        &self,
        vars: usize,
        alphabet: &[u8],
        max_len: usize,
    ) -> Option<Vec<Vec<u8>>> {
        let mut words: Vec<Vec<u8>> = vec![Vec::new()];
        let mut frontier: Vec<Vec<u8>> = vec![Vec::new()];
        for _ in 0..max_len {
            let next: Vec<Vec<u8>> = frontier
                .iter()
                .flat_map(|w| {
                    alphabet.iter().map(move |&b| {
                        let mut x = w.clone();
                        x.push(b);
                        x
                    })
                })
                .collect();
            words.extend(next.iter().cloned());
            frontier = next;
        }
        let candidates: Vec<Vec<&Vec<u8>>> = (0..vars)
            .map(|v| {
                words
                    .iter()
                    .filter(|w| {
                        self.rows.iter().all(|(lhs, m)| {
                            lhs.len() != 1 || lhs[0].0 as usize != v || self.machines[*m].accepts(w)
                        })
                    })
                    .collect()
            })
            .collect();
        if candidates.iter().any(Vec::is_empty) {
            return None;
        }
        let mut pick = vec![0usize; vars];
        loop {
            let tuple: Vec<Vec<u8>> = (0..vars).map(|v| candidates[v][pick[v]].clone()).collect();
            if self.satisfied_by(&tuple) {
                return Some(tuple);
            }
            let mut v = 0;
            loop {
                if v == vars {
                    return None;
                }
                pick[v] += 1;
                if pick[v] < candidates[v].len() {
                    break;
                }
                pick[v] = 0;
                v += 1;
            }
        }
    }
}

/// The shortest-witness tuple of an assignment, indexed by variable.
pub fn witness_tuple(system: &System, assignment: &Assignment) -> Result<Vec<Vec<u8>>, String> {
    system
        .var_ids()
        .map(|v| {
            assignment
                .witness(v)
                .ok_or_else(|| format!("variable {} has no witness", system.var_name(v)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprle_automata::ByteClass;

    #[test]
    fn simulation_follows_epsilon_edges() {
        let mut nfa = Nfa::new();
        let mid = nfa.add_state();
        let end = nfa.add_state();
        nfa.add_eps(nfa.start(), mid);
        nfa.add_edge(mid, ByteClass::singleton(b'a'), end);
        nfa.add_final(end);
        let m = Machine::new(&nfa);
        assert!(m.accepts(b"a"));
        assert!(!m.accepts(b""));
        assert!(!m.accepts(b"aa"));
    }

    #[test]
    fn brute_force_finds_concatenation_witness() {
        let mut sys = System::new();
        let v = sys.var("v");
        let w = sys.var("w");
        let ab = sys.constant("ab", Nfa::literal(b"ab"));
        sys.require(Expr::Var(v).concat(Expr::Var(w)), ab);
        let a = sys.constant("a", Nfa::literal(b"a"));
        sys.require(Expr::Var(v), a);
        let c = Constraints::new(&sys).expect("var/concat system");
        let found = c.brute_force(2, b"ab", 2).expect("v=a, w=b");
        assert_eq!(found, vec![b"a".to_vec(), b"b".to_vec()]);
        let bb = sys.constant("bb", Nfa::literal(b"bb"));
        sys.require(Expr::Var(w), bb);
        let c = Constraints::new(&sys).expect("var/concat system");
        assert!(c.brute_force(2, b"ab", 3).is_none());
    }
}
