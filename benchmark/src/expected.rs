//! The pinned expected outputs: one line per request the benchmark can
//! issue, with the FNV-1a fingerprint (`wire::body_fnv_hex`) of its
//! canonical response body as computed in-process. The request pools
//! of every workload are these lines, so a run draws only requests
//! whose answer is pinned.
//!
//! Format (`expected.tsv`): `workload \t class \t endpoint \t fnv \t
//! request-json`, one request per line; `#` starts a comment.

use hypdb_core::wire::{self, AnalyzeRequest};

/// The pinned file, compiled in.
const PINNED: &str = include_str!("../expected.tsv");

/// Which serving lane a request takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /analyze` (`wire::analyze` + `report_body`).
    Analyze,
    /// `POST /detect` (`wire::detect` + `detect_body`).
    Detect,
}

impl Endpoint {
    /// The label used in the file.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Analyze => "analyze",
            Endpoint::Detect => "detect",
        }
    }

    /// The HTTP path.
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Analyze => "/analyze",
            Endpoint::Detect => "/detect",
        }
    }

    fn parse(s: &str) -> Option<Endpoint> {
        match s {
            "analyze" => Some(Endpoint::Analyze),
            "detect" => Some(Endpoint::Detect),
            _ => None,
        }
    }
}

/// One pinned request.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Workload name (`flight-wide`, `adult-tall`, `serve-mixed`).
    pub workload: String,
    /// Request class within the workload (`cold`, `hot`, `seed`, `select`).
    pub class: String,
    /// Lane.
    pub endpoint: Endpoint,
    /// Expected `wire::body_fnv_hex` of the response body.
    pub fnv: String,
    /// The request.
    pub request: AnalyzeRequest,
}

impl Entry {
    /// Whether `body` is the pinned response.
    pub fn matches(&self, body: &str) -> bool {
        wire::body_fnv_hex(body) == self.fnv
    }
}

/// Every pinned request.
#[derive(Debug, Clone)]
pub struct Expected {
    /// File order.
    pub entries: Vec<Entry>,
}

impl Expected {
    /// The compiled-in pins.
    pub fn pinned() -> Result<Expected, String> {
        Expected::parse(PINNED)
    }

    /// Parses the file format.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |what: &str| format!("expected.tsv line {}: {what}", i + 1);
            let f: Vec<&str> = line.splitn(5, '\t').collect();
            if f.len() != 5 {
                return Err(bad("needs 5 tab-separated fields"));
            }
            let endpoint = Endpoint::parse(f[2]).ok_or_else(|| bad("unknown endpoint"))?;
            let request = wire::parse_request(f[4]).map_err(|e| bad(&e.to_string()))?;
            entries.push(Entry {
                workload: f[0].to_string(),
                class: f[1].to_string(),
                endpoint,
                fnv: f[3].to_string(),
                request,
            });
        }
        Ok(Expected { entries })
    }

    /// The entries of one workload class, file order.
    pub fn pool(&self, workload: &str, class: &str) -> Vec<&Entry> {
        self.entries
            .iter()
            .filter(|e| e.workload == workload && e.class == class)
            .collect()
    }

    /// Renders the file format.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Pinned response fingerprints (wire::body_fnv_hex), computed in-process.\n\
             # Regenerate: cargo run --release --manifest-path benchmark/Cargo.toml -- --write-expected\n",
        );
        for e in &self.entries {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                e.workload,
                e.class,
                e.endpoint.label(),
                e.fnv,
                e.request.canonical_json()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_file_round_trips() {
        let pinned = Expected::pinned().unwrap();
        assert!(!pinned.entries.is_empty());
        let again = Expected::parse(&pinned.render()).unwrap();
        assert_eq!(again.entries.len(), pinned.entries.len());
        for w in ["flight-wide", "adult-tall"] {
            assert!(!pinned.pool(w, "cold").is_empty(), "{w}");
        }
        for c in ["hot", "seed", "select"] {
            assert!(!pinned.pool("serve-mixed", c).is_empty(), "{c}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Expected::parse("a\tb\tc\n").is_err());
        assert!(Expected::parse("w\tc\tpost\tf\t{\"dataset\":\"x\",\"sql\":\"s\"}\n").is_err());
        assert!(Expected::parse("w\tc\tanalyze\tf\t{}\n").is_err());
    }
}
