//! Serializable export of a solved policy as a state-key → action table.
//!
//! A [`crate::Policy`] is a dense vector of *local* action indices and is
//! only meaningful next to the exact [`crate::Mdp`] it was solved against.
//! Consumers outside the solver — the scenario simulator replaying an
//! optimal policy on a real block tree, or an HTTP client asking
//! `/v1/policy` what to do in a given state — need the *domain* view
//! instead: "in state `(1, 2, 0, 1, 0)`, play action label 1". A
//! [`PolicyTable`] is exactly that: an ordered map from a caller-chosen
//! stable state key to the action's domain label, with a line-oriented
//! text encoding that round-trips bit-exactly.
//!
//! The table deliberately stores the *label* ([`CompiledMdp::label`]),
//! not the state-local action index: labels are the stable cross-crate
//! vocabulary (e.g. `bvc_bu::Action::label`), while local indices change
//! whenever a state's action list is reordered.

use std::fmt;

use crate::compiled::CompiledMdp;
use crate::model::{Policy, StateId};

/// Errors from building, encoding, or decoding a [`PolicyTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyTableError {
    /// Two states mapped to the same key, so lookups would be ambiguous.
    DuplicateKey(String),
    /// A key contains a tab or newline, which the text encoding reserves.
    ReservedCharacter(String),
    /// The encoded text's header line is missing or unrecognised.
    BadHeader(String),
    /// An encoded line is not `<key>\t<label>`.
    BadLine {
        /// 1-based line number inside the encoded text.
        line: usize,
        /// The offending line content.
        content: String,
    },
}

impl fmt::Display for PolicyTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyTableError::DuplicateKey(k) => {
                write!(f, "duplicate state key {k:?} in policy table")
            }
            PolicyTableError::ReservedCharacter(k) => {
                write!(f, "state key {k:?} contains a reserved tab/newline character")
            }
            PolicyTableError::BadHeader(h) => {
                write!(f, "unrecognised policy-table header {h:?}")
            }
            PolicyTableError::BadLine { line, content } => {
                write!(f, "malformed policy-table line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for PolicyTableError {}

/// Header line of the text encoding; bump the version on format changes.
const HEADER: &str = "bvc-policy-table v1";

/// A solved policy exported as a sorted `(state key, action label)` table.
///
/// Keys are sorted lexicographically, so [`PolicyTable::encode`] is a
/// canonical form: two tables with the same mappings encode to identical
/// bytes regardless of insertion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyTable {
    /// Sorted by key; lookups binary-search.
    entries: Vec<(String, usize)>,
}

impl PolicyTable {
    /// Exports `policy` over `mdp` as a table keyed by `key_of`.
    ///
    /// `key_of` must be injective over the model's states and produce keys
    /// free of tabs and newlines; violations surface as errors rather than
    /// silently dropped states.
    pub fn from_policy<F>(
        mdp: &CompiledMdp,
        policy: &Policy,
        key_of: F,
    ) -> Result<Self, PolicyTableError>
    where
        F: Fn(StateId) -> String,
    {
        let mut entries: Vec<(String, usize)> = Vec::with_capacity(mdp.num_states());
        for s in 0..mdp.num_states() {
            let key = key_of(s);
            if key.contains('\t') || key.contains('\n') {
                return Err(PolicyTableError::ReservedCharacter(key));
            }
            entries.push((key, policy.label(mdp, s)));
        }
        entries.sort();
        if let Some(w) = entries.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(PolicyTableError::DuplicateKey(w[0].0.clone()));
        }
        Ok(PolicyTable { entries })
    }

    /// Number of states in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The action label chosen in the state with key `key`, if present.
    pub fn action_of(&self, key: &str) -> Option<usize> {
        self.entries.binary_search_by(|(k, _)| k.as_str().cmp(key)).ok().map(|i| self.entries[i].1)
    }

    /// Iterates `(key, label)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, usize)> + '_ {
        self.entries.iter().map(|(k, l)| (k.as_str(), *l))
    }

    /// Canonical text encoding: a header line, then one `<key>\t<label>`
    /// line per state in key order.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 16 + HEADER.len() + 1);
        out.push_str(HEADER);
        out.push('\n');
        for (key, label) in &self.entries {
            out.push_str(key);
            out.push('\t');
            out.push_str(&label.to_string());
            out.push('\n');
        }
        out
    }

    /// Inverse of [`PolicyTable::encode`].
    pub fn decode(text: &str) -> Result<Self, PolicyTableError> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h == HEADER => {}
            other => {
                return Err(PolicyTableError::BadHeader(other.unwrap_or("").to_string()));
            }
        }
        let mut entries = Vec::new();
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let (key, label) = match line.split_once('\t') {
                Some((k, rest)) => match rest.parse::<usize>() {
                    Ok(l) => (k.to_string(), l),
                    Err(_) => {
                        return Err(PolicyTableError::BadLine {
                            line: i + 2,
                            content: line.to_string(),
                        });
                    }
                },
                None => {
                    return Err(PolicyTableError::BadLine {
                        line: i + 2,
                        content: line.to_string(),
                    });
                }
            };
            entries.push((key, label));
        }
        entries.sort();
        if let Some(w) = entries.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(PolicyTableError::DuplicateKey(w[0].0.clone()));
        }
        Ok(PolicyTable { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Mdp, Transition};

    /// A 3-state chain where every state has two actions with labels 10
    /// and 20; the policy picks 20 in state 1 and 10 elsewhere.
    fn tiny() -> (CompiledMdp, Policy) {
        let mut mdp = Mdp::new(1);
        for _ in 0..3 {
            mdp.add_state();
        }
        for s in 0..3 {
            let next = (s + 1) % 3;
            mdp.add_action(s, 10, vec![Transition::new(next, 1.0, vec![0.0])]);
            mdp.add_action(s, 20, vec![Transition::new(next, 1.0, vec![1.0])]);
        }
        let mut policy = Policy::zeros(3);
        policy.choices[1] = 1;
        (CompiledMdp::compile(&mdp).unwrap(), policy)
    }

    #[test]
    fn exports_labels_not_indices() {
        let (mdp, policy) = tiny();
        let table = PolicyTable::from_policy(&mdp, &policy, |s| format!("s{s}")).unwrap();
        assert_eq!(table.len(), 3);
        assert_eq!(table.action_of("s0"), Some(10));
        assert_eq!(table.action_of("s1"), Some(20));
        assert_eq!(table.action_of("s2"), Some(10));
        assert_eq!(table.action_of("nope"), None);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (mdp, policy) = tiny();
        let table =
            PolicyTable::from_policy(&mdp, &policy, |s| format!("({s}, {})", s * 2)).unwrap();
        let text = table.encode();
        let back = PolicyTable::decode(&text).unwrap();
        assert_eq!(back, table);
        // Canonical: re-encoding the decoded table is byte-identical.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(PolicyTable::decode(""), Err(PolicyTableError::BadHeader(_))));
        assert!(matches!(
            PolicyTable::decode("bvc-policy-table v0\n"),
            Err(PolicyTableError::BadHeader(_))
        ));
        let bad = format!("{HEADER}\nkey-without-tab\n");
        assert!(matches!(
            PolicyTable::decode(&bad),
            Err(PolicyTableError::BadLine { line: 2, .. })
        ));
        let bad = format!("{HEADER}\nk\tnot-a-number\n");
        assert!(matches!(PolicyTable::decode(&bad), Err(PolicyTableError::BadLine { .. })));
        let dup = format!("{HEADER}\nk\t1\nk\t2\n");
        assert!(matches!(PolicyTable::decode(&dup), Err(PolicyTableError::DuplicateKey(_))));
    }

    /// Every proper prefix of an encoding, and every encoding with one
    /// delimiter byte swapped in, decodes to a table or an error without
    /// panicking; a table it accepts round-trips through its own encoding.
    #[test]
    fn decode_mutants_never_panic() {
        let (mdp, policy) = tiny();
        let table = PolicyTable::from_policy(&mdp, &policy, |s| format!("({s}, \"τ\")")).unwrap();
        let empty = PolicyTable { entries: Vec::new() };
        for valid in [table.encode(), empty.encode()] {
            for mutant in proptest::mutate::mutants(&valid) {
                if let Ok(decoded) = PolicyTable::decode(mutant.text()) {
                    assert_eq!(PolicyTable::decode(&decoded.encode()), Ok(decoded), "{mutant:?}");
                }
            }
        }
    }

    #[test]
    fn rejects_non_injective_or_reserved_keys() {
        let (mdp, policy) = tiny();
        assert!(matches!(
            PolicyTable::from_policy(&mdp, &policy, |_| "same".to_string()),
            Err(PolicyTableError::DuplicateKey(_))
        ));
        assert!(matches!(
            PolicyTable::from_policy(&mdp, &policy, |s| format!("s\t{s}")),
            Err(PolicyTableError::ReservedCharacter(_))
        ));
    }
}
