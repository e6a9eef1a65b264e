//! Seeded generator of well-formed epistemic formulas over a frame's
//! vocabulary: K, E, S, D and C over random groups, greatest and least
//! fixpoints, Boolean connectives, and — on run frames — the temporal
//! operators `next`, `even`, `alw` and `once`.
//!
//! Two streams drive it. The *shape* stream — operators, nesting, group
//! sizes — is the same for every seed, so every seed asks a mix of the
//! same cost profile and runs on different seeds compare. The *fill*
//! stream — atoms, agents, group members, negated leaves — comes from
//! the seed.

use hm_engine::Query;
use hm_kripke::SplitMix64;
use std::collections::HashSet;

/// What a frame interprets: atom names, agent count, run structure.
#[derive(Clone, Copy)]
pub struct Vocab {
    pub atoms: &'static [&'static str],
    pub agents: usize,
    pub temporal: bool,
}

/// Modal nesting depth of generated formulas.
const DEPTH: u32 = 3;

/// Fill attempts on one shape before a formula that keeps colliding
/// with earlier ones (a tiny shape has few fills) gets a new shape.
const REFILLS: usize = 8;

pub struct FormulaGen {
    shape: SplitMix64,
    fill: SplitMix64,
    vocab: Vocab,
    /// Fixpoint variables are numbered so nested binders never shadow.
    next_var: u32,
    seen: HashSet<String>,
}

impl FormulaGen {
    /// A generator whose shapes come from `shape_seed` and whose fill
    /// comes from `seed`.
    pub fn new(shape_seed: u64, seed: u64, vocab: Vocab) -> Self {
        FormulaGen {
            shape: SplitMix64::new(shape_seed),
            fill: SplitMix64::new(seed),
            vocab,
            next_var: 0,
            seen: HashSet::new(),
        }
    }

    /// A formula never returned before by this generator, with its text.
    pub fn fresh(&mut self) -> (String, Query) {
        loop {
            let shape = self.shape.clone();
            for _ in 0..REFILLS {
                self.shape = shape.clone();
                self.next_var = 0;
                let text = self.gen(DEPTH);
                let query = Query::parse(&text).expect("generated formulas parse");
                // Distinct by the normalised form, which is what the
                // session caches on.
                if self.seen.insert(query.to_string()) {
                    return (text, query);
                }
            }
        }
    }

    /// A shape decision in `0..n`.
    fn pick(&mut self, n: usize) -> usize {
        self.shape.next_below(n as u64) as usize
    }

    /// A fill decision in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        self.fill.next_below(n as u64) as usize
    }

    fn leaf(&mut self) -> String {
        let atom = self.vocab.atoms[self.below(self.vocab.atoms.len())];
        if self.below(4) == 0 {
            format!("!{atom}")
        } else {
            atom.to_string()
        }
    }

    /// A non-empty agent group in braces, e.g. `{0,2}`.
    fn group(&mut self) -> String {
        let n = self.vocab.agents;
        let size = 1 + self.pick(n);
        let mut agents: Vec<usize> = (0..n).collect();
        for i in 0..size {
            let j = i + self.below(n - i);
            agents.swap(i, j);
        }
        let mut members = agents[..size].to_vec();
        members.sort_unstable();
        let list: Vec<String> = members.iter().map(usize::to_string).collect();
        format!("{{{}}}", list.join(","))
    }

    fn gen(&mut self, depth: u32) -> String {
        if depth == 0 {
            return self.leaf();
        }
        let choices = if self.vocab.temporal { 14 } else { 10 };
        let d = depth - 1;
        match self.pick(choices) {
            0 => self.leaf(),
            1 => format!("!{}", self.gen(d)),
            2 => format!("({} & {})", self.gen(d), self.gen(d)),
            3 => format!("({} | {})", self.gen(d), self.gen(d)),
            4 => format!("({} -> {})", self.gen(d), self.gen(d)),
            5 => {
                let i = self.below(self.vocab.agents);
                format!("K{i} {}", self.gen(d))
            }
            6 => {
                let g = self.group();
                if self.pick(2) == 0 {
                    format!("E{g} {}", self.gen(d))
                } else {
                    format!("S{g} {}", self.gen(d))
                }
            }
            7 => format!("C{} {}", self.group(), self.gen(d)),
            8 => format!("D{} {}", self.group(), self.gen(d)),
            9 => {
                let v = format!("X{}", self.next_var);
                self.next_var += 1;
                let body = self.gen(d);
                if self.pick(2) == 0 {
                    format!("(nu {v}. ({body} & E{} ${v}))", self.group())
                } else {
                    let i = self.below(self.vocab.agents);
                    format!("(mu {v}. ({body} | K{i} ${v}))")
                }
            }
            10 => format!("next {}", self.gen(d)),
            11 => format!("even {}", self.gen(d)),
            12 => format!("alw {}", self.gen(d)),
            _ => format!("once {}", self.gen(d)),
        }
    }
}
