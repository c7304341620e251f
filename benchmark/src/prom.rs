//! Parser for the server's Prometheus-style metrics text
//! (`RemoteClient::metrics_text`) and deltas between two scrapes.

use std::collections::BTreeMap;

/// `name` or `name{labels}` → value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses an exposition; comment lines and lines that do not end in
    /// a number are skipped.
    pub fn parse(text: &str) -> Scrape {
        let mut out = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((name, value)) = line.rsplit_once(char::is_whitespace) {
                if let Ok(v) = value.parse::<f64>() {
                    out.insert(name.trim().to_string(), v);
                }
            }
        }
        Scrape(out)
    }

    /// The sample's value; a metric the server has not registered yet
    /// reads as 0, like a counter that never fired.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `self − earlier`, sample by sample.
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.get(k)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# TYPE just_server_requests counter\n\
        just_server_requests 10\n\
        # TYPE lat summary\n\
        lat{quantile=\"0.5\"} 128\n\
        lat_sum 4000\n\
        lat_count 10\n";
    const AFTER: &str = "# TYPE just_server_requests counter\n\
        just_server_requests 25\n\
        # TYPE just_kvstore_wal_appends counter\n\
        just_kvstore_wal_appends 600\n\
        lat{quantile=\"0.5\"} 256\n\
        lat_sum 9000\n\
        lat_count 25\n\
        garbage line without number\n";

    #[test]
    fn parses_counters_and_labelled_samples() {
        let s = Scrape::parse(AFTER);
        assert_eq!(s.get("just_server_requests"), 25.0);
        assert_eq!(s.get("lat{quantile=\"0.5\"}"), 256.0);
        assert_eq!(s.get("absent"), 0.0);
        assert_eq!(s.get("garbage line without"), 0.0);
    }

    #[test]
    fn delta_treats_new_metrics_as_starting_from_zero() {
        let d = Scrape::parse(AFTER).since(&Scrape::parse(BEFORE));
        assert_eq!(d.get("just_server_requests"), 15.0);
        assert_eq!(d.get("just_kvstore_wal_appends"), 600.0);
        assert_eq!(d.get("lat_sum"), 5000.0);
        assert_eq!(d.get("lat_count"), 15.0);
    }
}
