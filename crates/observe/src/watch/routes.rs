//! Live HTTP routes for [`crate::metrics::MetricsServer`].
//!
//! [`watch_routes`] packages a [`Watchdog`] as two extra endpoints
//! served on the same port as `/metrics` (and, typically, next to
//! `crate::profile::profile_routes`):
//!
//! | route | content | body |
//! |---|---|---|
//! | `/health` | `application/json` | overall OK/DEGRADED/POISONED with per-check and per-SLO detail |
//! | `/alerts.json` | `application/json` | active violations plus the recent transition-event ring |
//!
//! The routes read the watchdog's shared state, so they keep serving
//! the last published verdicts even while an evaluation tick is in
//! flight — a scrape never blocks on an invariant closure.

use crate::metrics::Routes;
use crate::watch::watchdog::Watchdog;

/// Builds the `/health` and `/alerts.json` route table over a
/// watchdog's shared state. The returned routes stay valid for the
/// watchdog's whole lifetime (they hold their own handle).
#[must_use]
pub fn watch_routes(watchdog: &Watchdog) -> Routes {
    let health = watchdog.shared();
    let alerts = watchdog.shared();
    Routes::new()
        .add("/health", move || {
            (
                "application/json".to_owned(),
                health.health_json().render_pretty(),
            )
        })
        .add("/alerts.json", move || {
            (
                "application/json".to_owned(),
                alerts.alerts_json().render_pretty(),
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Json;

    #[test]
    fn routes_cover_health_and_alerts() {
        let dog = Watchdog::builder().build();
        let routes = watch_routes(&dog);
        assert_eq!(routes.paths(), vec!["/health", "/alerts.json"]);
    }

    #[test]
    fn route_bodies_are_valid_json_with_the_published_schemas() {
        let mut dog = Watchdog::builder()
            .invariant(crate::watch::invariant::Invariant::new("steady", || {
                crate::watch::invariant::Verdict::Ok
            }))
            .build();
        dog.tick();
        let routes = watch_routes(&dog);
        let (ctype, body) = routes.lookup("/health").expect("route")();
        assert_eq!(ctype, "application/json");
        let health = Json::parse(&body).expect("valid json");
        assert_eq!(
            health.get("schema").unwrap().as_str(),
            Some("cso-health v1")
        );
        assert_eq!(health.get("status").unwrap().as_str(), Some("OK"));
        let (_, body) = routes.lookup("/alerts.json").expect("route")();
        let alerts = Json::parse(&body).expect("valid json");
        assert_eq!(
            alerts.get("schema").unwrap().as_str(),
            Some("cso-alerts v1")
        );
        assert_eq!(alerts.get("active").unwrap().as_arr(), Some(&[][..]));
    }
}
