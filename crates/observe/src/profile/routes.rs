//! Live HTTP routes for [`crate::metrics::MetricsServer`].
//!
//! [`profile_routes`] packages a [`LiveAggregator`] as four extra
//! endpoints served on the same port as `/metrics`:
//!
//! | route | content | body |
//! |---|---|---|
//! | `/profile` | `text/plain` | human-readable live profile ([`crate::analyze::Snapshot::render_text`]) |
//! | `/spans.json` | `application/json` | the full snapshot ([`crate::analyze::Snapshot::to_json`]) |
//! | `/flamegraph` | `text/plain` | collapsed stacks (pipe into `flamegraph.pl`) |
//! | `/causal.json` | `application/json` | the cross-thread helped-by graph ([`crate::analyze::causal::CausalReport::to_json`]) |
//!
//! ```no_run
//! use std::sync::Arc;
//! use cso_observe::metrics::{MetricsServer, Registry};
//! use cso_observe::profile::{Harvester, profile_routes};
//!
//! let harvester = Harvester::start();
//! let server = MetricsServer::bind_with_routes(
//!     Registry::new(),
//!     "127.0.0.1:0",
//!     profile_routes(harvester.aggregator()),
//! ).expect("bind");
//! println!("curl http://{}/profile", server.addr());
//! ```

use std::sync::Arc;

use crate::metrics::Routes;
use crate::profile::aggregate::LiveAggregator;

/// Builds the `/profile`, `/spans.json`, `/flamegraph` and
/// `/causal.json` route table over a shared aggregator (each request
/// takes a fresh snapshot).
#[must_use]
pub fn profile_routes(aggregator: Arc<LiveAggregator>) -> Routes {
    let profile = Arc::clone(&aggregator);
    let spans = Arc::clone(&aggregator);
    let flame = Arc::clone(&aggregator);
    let causal = aggregator;
    Routes::new()
        .add("/profile", move || {
            (
                "text/plain; charset=utf-8".to_owned(),
                profile.snapshot().render_text(),
            )
        })
        .add("/spans.json", move || {
            (
                "application/json".to_owned(),
                spans.snapshot().to_json().render_pretty(),
            )
        })
        .add("/flamegraph", move || {
            ("text/plain; charset=utf-8".to_owned(), flame.collapsed())
        })
        .add("/causal.json", move || {
            (
                "application/json".to_owned(),
                causal.snapshot().causal.to_json().render_pretty(),
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_cover_the_four_profile_endpoints() {
        let routes = profile_routes(Arc::new(LiveAggregator::new()));
        let paths = routes.paths();
        assert_eq!(
            paths,
            vec!["/profile", "/spans.json", "/flamegraph", "/causal.json"]
        );
    }
}
