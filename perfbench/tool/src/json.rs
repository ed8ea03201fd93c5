//! A flat JSON object writer: the tool reports to the orchestrator as one
//! line of `{"name": number, ...}`.

/// Keys and already-formatted number values, in insertion order.
#[derive(Debug, Default)]
pub struct Json(Vec<(String, String)>);

impl Json {
    /// Adds a real number; non-finite values are written as `null`.
    pub fn num(&mut self, key: &str, value: f64) {
        let text = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.0.push((key.to_string(), text));
    }

    /// Adds a whole number.
    pub fn int(&mut self, key: &str, value: u64) {
        self.0.push((key.to_string(), value.to_string()));
    }

    /// The object as one line.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_numbers_in_order() {
        let mut j = Json::default();
        j.int("frames", 3);
        j.num("p50_us", 81.25);
        j.num("bad", f64::NAN);
        assert_eq!(j.render(), r#"{"frames": 3, "p50_us": 81.25, "bad": null}"#);
    }
}
