//! The flat `name value` record a child process prints and the driver
//! reads back: one line per field, names as in the metric catalogue.
//!
//! Values stay text until read, so a 64-bit fingerprint survives the
//! trip exactly and a float keeps every digit it was measured with.

use std::collections::BTreeMap;
use std::fmt::Display;

/// An ordered set of named values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fields(BTreeMap<String, String>);

impl Fields {
    /// Set `key` to `value`'s `Display` rendering.
    pub fn put(&mut self, key: &str, value: impl Display) {
        self.0.insert(key.to_string(), value.to_string());
    }

    /// The raw text of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// `key` as an exact unsigned integer.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        let raw = self.get(key).ok_or_else(|| format!("field {key} is missing"))?;
        raw.parse().map_err(|_| format!("field {key} = {raw:?} is not an unsigned integer"))
    }

    /// `key` as a finite float.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        let raw = self.get(key).ok_or_else(|| format!("field {key} is missing"))?;
        match raw.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(format!("field {key} = {raw:?} is not a finite number")),
        }
    }

    /// `key` as a float, 0 when absent (a stage the workload does not
    /// run reports nothing).
    pub fn f64_or_zero(&self, key: &str) -> f64 {
        self.f64(key).unwrap_or(0.0)
    }

    /// One `name value` line per field.
    pub fn render(&self) -> String {
        self.0.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
    }

    /// Parse [`Fields::render`] output; lines that are not `name value`
    /// are ignored.
    pub fn parse(text: &str) -> Fields {
        let mut f = Fields::default();
        for line in text.lines() {
            if let Some((k, v)) = line.split_once(' ') {
                f.0.insert(k.to_string(), v.trim().to_string());
            }
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_integers_and_floats_exactly() {
        let mut f = Fields::default();
        f.put("fingerprint", u64::MAX - 1);
        f.put("run_s", 1.2345678901234567_f64);
        let back = Fields::parse(&f.render());
        assert_eq!(back, f);
        assert_eq!(back.u64("fingerprint"), Ok(u64::MAX - 1));
        assert_eq!(back.f64("run_s"), Ok(1.2345678901234567));
    }

    #[test]
    fn missing_and_malformed_fields_are_errors_not_zeros() {
        let f = Fields::parse("run_s fast\nnoise\ncount 3\n");
        assert!(f.f64("run_s").is_err());
        assert!(f.u64("absent").is_err());
        assert!(f.f64("inf").is_err());
        assert_eq!(f.u64("count"), Ok(3));
        assert_eq!(f.f64_or_zero("absent"), 0.0);
    }
}
