//! Wire protocol: line-delimited JSON. One request per line in, one
//! response per line out (responses carry the request `id`, so they may
//! be written in completion order, not arrival order).
//!
//! Requests:
//!
//! ```text
//! {"id": 1, "event": {<trkx_detector::Event JSON>}}   reconstruct one event
//! {"cmd": "reload", "path": "pipeline_v2.json"}       hot-swap the model
//! {"cmd": "stats"}                                    latency/throughput snapshot
//! {"cmd": "shutdown"}                                 drain the queue and exit
//! ```
//!
//! Responses (`status` is `"ok"`, `"shed"`, or `"error"`; absent fields
//! serialise as `null`):
//!
//! ```text
//! {"id":1,"status":"ok","version":1,"num_hits":312,"edges_kept":288,
//!  "tracks":[[0,17,42,...],...],"timings_us":{...}}
//! {"id":2,"status":"shed","reason":"event_too_large: 4810 hits > budget 2000"}
//! {"status":"ok","stats":{...}}
//! ```

use crate::stats::StatsSnapshot;
use serde::{Deserialize, Serialize};
use trkx_detector::Event;

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Reconstruct one event.
    Event { id: u64, event: Event },
    /// Hot-swap the active model from a new artifact.
    Reload { path: String },
    /// Report a latency/throughput snapshot.
    Stats,
    /// Drain queued work, answer it, then exit cleanly.
    Shutdown,
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = serde_json::parse_value(line).map_err(|e| format!("bad json: {e}"))?;
    if let Some(cmd) = value.get("cmd").and_then(|c| c.as_str()) {
        return match cmd {
            "reload" => {
                let path = value
                    .get("path")
                    .and_then(|p| p.as_str())
                    .ok_or("reload requires a \"path\" field")?;
                Ok(Request::Reload {
                    path: path.to_string(),
                })
            }
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown cmd {other:?}")),
        };
    }
    let id = value
        .get("id")
        .and_then(|i| i.as_u64())
        .ok_or("event requests require a numeric \"id\" field")?;
    let event = value.get("event").ok_or("missing \"event\" field")?;
    let event = Event::from_content(event).map_err(|e| format!("bad event: {e}"))?;
    Ok(Request::Event { id, event })
}

/// Per-request timing breakdown, microseconds, all of it this request's
/// own: `queue_us` runs from admission until its reconstruction starts
/// (including any wait behind requests its worker took in the same
/// wake-up), the five stage times are its own event's, and `total_us`
/// runs from admission to its response.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize, PartialEq)]
pub struct TimingsUs {
    pub queue_us: u64,
    pub embed_us: u64,
    pub construct_us: u64,
    pub filter_us: u64,
    pub gnn_us: u64,
    pub tracks_us: u64,
    pub total_us: u64,
    /// Requests the worker took from the queue in the same wake-up as
    /// this one (at most [`MAX_JOBS_PER_WAKE`](crate::queue::MAX_JOBS_PER_WAKE)).
    pub batch_events: usize,
    /// Candidate edges stage 2 built for this event (with
    /// `construct_us`, gives construction edges/sec; absent from
    /// responses emitted before this field existed).
    #[serde(default)]
    pub construct_edges: usize,
}

/// One response line. `status` is `"ok"`, `"shed"`, or `"error"`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Response {
    pub id: Option<u64>,
    pub status: String,
    /// Model registry version that served the request.
    pub version: Option<u64>,
    pub num_hits: Option<usize>,
    pub edges_kept: Option<usize>,
    /// Reconstructed tracks: hit indices per track (components with at
    /// least `min_hits` hits, ordered by their first hit).
    pub tracks: Option<Vec<Vec<u32>>>,
    pub reason: Option<String>,
    pub error: Option<String>,
    pub timings_us: Option<TimingsUs>,
    pub stats: Option<StatsSnapshot>,
}

impl Response {
    fn base(status: &str) -> Self {
        Self {
            id: None,
            status: status.to_string(),
            version: None,
            num_hits: None,
            edges_kept: None,
            tracks: None,
            reason: None,
            error: None,
            timings_us: None,
            stats: None,
        }
    }

    /// Successful reconstruction.
    pub fn ok(id: u64) -> Self {
        Self {
            id: Some(id),
            ..Self::base("ok")
        }
    }

    /// Explicit shed (admission control rejected the request).
    pub fn shed(id: u64, reason: String) -> Self {
        Self {
            id: Some(id),
            reason: Some(reason),
            ..Self::base("shed")
        }
    }

    /// Error response (bad request, failed reload, a panic while
    /// reconstructing, ...).
    pub fn error(id: Option<u64>, error: String) -> Self {
        Self {
            id,
            error: Some(error),
            ..Self::base("error")
        }
    }

    /// Command acknowledgement (reload/stats/shutdown).
    pub fn ack() -> Self {
        Self::base("ok")
    }

    /// Serialise to one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("response serialises")
    }
}

/// Group hits by connected component and keep components with at least
/// `min_hits` hits — the served track list, ordered by first hit index.
pub fn tracks_from_components(component_of_hit: &[u32], min_hits: usize) -> Vec<Vec<u32>> {
    let mut by_component: std::collections::HashMap<u32, Vec<u32>> =
        std::collections::HashMap::new();
    for (hit, &c) in component_of_hit.iter().enumerate() {
        by_component.entry(c).or_default().push(hit as u32);
    }
    let mut tracks: Vec<Vec<u32>> = by_component
        .into_values()
        .filter(|hits| hits.len() >= min_hits)
        .collect();
    tracks.sort_by_key(|hits| hits[0]);
    tracks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_requests_parse() {
        assert!(matches!(
            parse_request(r#"{"cmd":"stats"}"#),
            Ok(Request::Stats)
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
        match parse_request(r#"{"cmd":"reload","path":"m.json"}"#) {
            Ok(Request::Reload { path }) => assert_eq!(path, "m.json"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_request(r#"{"cmd":"nope"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"reload"}"#).is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"event":{}}"#).is_err(), "missing id");
    }

    #[test]
    fn response_roundtrips_through_json() {
        let mut r = Response::ok(7);
        r.version = Some(3);
        r.edges_kept = Some(12);
        r.tracks = Some(vec![vec![0, 1, 2], vec![5, 6, 7]]);
        let line = r.to_line();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn components_group_into_tracks() {
        let components = [0, 0, 0, 1, 1, 2, 0];
        let tracks = tracks_from_components(&components, 3);
        assert_eq!(tracks, vec![vec![0, 1, 2, 6]]);
        let tracks2 = tracks_from_components(&components, 2);
        assert_eq!(tracks2, vec![vec![0, 1, 2, 6], vec![3, 4]]);
    }
}
