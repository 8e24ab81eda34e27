//! W1 fixture: a waiver that suppresses nothing is itself a finding.

// pnet-tidy: allow(D2) -- fixture: this waiver suppresses nothing
pub fn noop() {}
