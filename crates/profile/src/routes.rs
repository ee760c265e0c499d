//! Live HTTP routes for [`cso_metrics::MetricsServer`].
//!
//! [`profile_routes`] packages a [`LiveAggregator`] as three extra
//! endpoints served on the same port as `/metrics`:
//!
//! | route | content | body |
//! |---|---|---|
//! | `/profile` | `text/plain` | human-readable live profile ([`ProfileSnapshot::render_text`]) |
//! | `/spans.json` | `application/json` | the full snapshot ([`ProfileSnapshot::to_json`]) |
//! | `/flamegraph` | `text/plain` | collapsed stacks (pipe into `flamegraph.pl`) |
//! | `/causal.json` | `application/json` | the cross-thread helped-by graph ([`cso_analyze::causal::CausalReport::to_json`]) |
//!
//! ```no_run
//! use std::sync::Arc;
//! use cso_metrics::{MetricsServer, Registry};
//! use cso_profile::{Harvester, profile_routes};
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

use cso_metrics::Routes;

use crate::aggregate::LiveAggregator;

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
    use cso_trace::SiteClass;

    #[test]
    fn routes_cover_the_four_profile_endpoints() {
        let routes = profile_routes(Arc::new(LiveAggregator::new()));
        let paths = routes.paths();
        assert_eq!(
            paths,
            vec!["/profile", "/spans.json", "/flamegraph", "/causal.json"]
        );
    }

    /// The probe-site tables published by `cso-core` and `cso-locks`
    /// must stay in sync with the causal taxonomy: every class a table
    /// names parses, and every [`SiteClass`] is represented by at least
    /// one real probe site — otherwise the causal scanner would rank a
    /// class no instrumented code can ever hit.
    #[test]
    fn probe_site_tables_match_the_causal_taxonomy() {
        let tables: [(&str, &[(&str, &str)]); 3] = [
            ("cso-core", cso_core::PROBE_SITES),
            ("cso-locks", cso_locks::PROBE_SITES),
            ("cso-stack", cso_stack::PROBE_SITES),
        ];
        let mut seen = Vec::new();
        for (owner, table) in tables {
            for &(site, class) in table {
                assert!(!site.is_empty(), "{owner}: empty site name");
                if class == "-" {
                    continue;
                }
                let parsed = SiteClass::parse(class)
                    .unwrap_or_else(|| panic!("{owner}: site {site} names unknown class {class}"));
                if !seen.contains(&parsed) {
                    seen.push(parsed);
                }
            }
        }
        for class in SiteClass::ALL {
            assert!(
                seen.contains(&class),
                "no probe site in any table maps to class {}",
                class.name()
            );
        }
    }

    /// Every site a table names must be a real event name, so the
    /// tables cannot drift from the probe taxonomy silently. The names
    /// are spelled in `cso-trace` only: ask its event-log parser,
    /// offering every payload column so that only the name decides.
    #[test]
    fn probe_site_names_are_real_event_names() {
        for table in [
            cso_core::PROBE_SITES,
            cso_locks::PROBE_SITES,
            cso_stack::PROBE_SITES,
        ] {
            for &(site, _) in table {
                assert!(
                    cso_trace::export::parse_event(site, Some("site"), Some(0), Some(0)).is_some(),
                    "unknown probe site name: {site}"
                );
            }
        }
    }
}
