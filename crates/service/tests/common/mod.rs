//! Helpers shared by the service's integration-test binaries.

/// The value of the unlabelled counter or gauge `name` in a Prometheus
/// text scrape.
///
/// # Panics
///
/// Panics when the scrape carries no such series.
pub fn series(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no `{name}` series in:\n{text}"))
}
