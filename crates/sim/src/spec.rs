//! Frontend specifications: serializable descriptions of the frontend
//! configurations a sweep instantiates.

use crate::json::{push_u64, Json, Reader, Token};
use xbc::{PromotionMode, XbcConfig, XbcFrontend};
use xbc_frontend::{
    BbtcConfig, BbtcFrontend, Frontend, IcFrontend, IcFrontendConfig, TcConfig, TraceCacheFrontend,
    UopCacheConfig, UopCacheFrontend,
};

/// Which frontend to run, with the knobs the paper varies.
///
/// # Examples
///
/// ```
/// use xbc_sim::FrontendSpec;
///
/// let spec = FrontendSpec::Xbc { total_uops: 32 * 1024, ways: 2, promotion: true };
/// assert_eq!(spec.label(), "xbc-32k");
/// let fe = spec.instantiate();
/// assert_eq!(fe.name(), "xbc");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrontendSpec {
    /// Instruction-cache-only baseline (§2.1).
    Ic,
    /// Decoded (uop) cache baseline (§2.2).
    UopCache {
        /// Total uop-slot capacity.
        total_uops: usize,
    },
    /// Block-based trace cache baseline (§2.4).
    Bbtc {
        /// Block-cache capacity in uop slots.
        total_uops: usize,
    },
    /// Trace-cache baseline (§2.3).
    Tc {
        /// Total uop capacity.
        total_uops: usize,
        /// Associativity.
        ways: usize,
    },
    /// The eXtended Block Cache (§3).
    Xbc {
        /// Total uop capacity.
        total_uops: usize,
        /// Ways per bank.
        ways: usize,
        /// Branch promotion on/off.
        promotion: bool,
    },
}

impl FrontendSpec {
    /// The paper's headline TC: 32K uops, 4-way.
    pub fn tc_default() -> Self {
        FrontendSpec::Tc { total_uops: 32 * 1024, ways: 4 }
    }

    /// The paper's headline XBC: 32K uops, 2-way banks, promotion on.
    pub fn xbc_default() -> Self {
        FrontendSpec::Xbc { total_uops: 32 * 1024, ways: 2, promotion: true }
    }

    /// Short label used in report tables, e.g. `"xbc-32k"`.
    pub fn label(&self) -> String {
        fn k(n: usize) -> String {
            if n.is_multiple_of(1024) {
                format!("{}k", n / 1024)
            } else {
                n.to_string()
            }
        }
        match self {
            FrontendSpec::Ic => "ic".to_owned(),
            FrontendSpec::UopCache { total_uops } => format!("uop-{}", k(*total_uops)),
            FrontendSpec::Bbtc { total_uops } => format!("bbtc-{}", k(*total_uops)),
            FrontendSpec::Tc { total_uops, ways: 4 } => format!("tc-{}", k(*total_uops)),
            FrontendSpec::Tc { total_uops, ways } => format!("tc-{}-w{ways}", k(*total_uops)),
            FrontendSpec::Xbc { total_uops, ways: 2, promotion: true } => {
                format!("xbc-{}", k(*total_uops))
            }
            FrontendSpec::Xbc { total_uops, ways, promotion } => {
                format!(
                    "xbc-{}-w{ways}{}",
                    k(*total_uops),
                    if *promotion { "" } else { "-nopromo" }
                )
            }
        }
    }

    /// Canonical identity string for cache keys. Unlike [`label`], this
    /// covers every field, so two distinct configurations can never
    /// share a key.
    ///
    /// [`label`]: FrontendSpec::label
    pub fn key(&self) -> String {
        format!("{self:?}")
    }

    /// Serializes this spec as a compact JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends [`FrontendSpec::to_json`]'s text to `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        let (kind, total_uops, ways, promotion) = match *self {
            FrontendSpec::Ic => ("ic", None, None, None),
            FrontendSpec::UopCache { total_uops } => ("uop", Some(total_uops), None, None),
            FrontendSpec::Bbtc { total_uops } => ("bbtc", Some(total_uops), None, None),
            FrontendSpec::Tc { total_uops, ways } => ("tc", Some(total_uops), Some(ways), None),
            FrontendSpec::Xbc { total_uops, ways, promotion } => {
                ("xbc", Some(total_uops), Some(ways), Some(promotion))
            }
        };
        out.push_str("{\"kind\":\"");
        out.push_str(kind);
        out.push('"');
        if let Some(n) = total_uops {
            out.push_str(",\"total_uops\":");
            push_u64(out, n as u64);
        }
        if let Some(n) = ways {
            out.push_str(",\"ways\":");
            push_u64(out, n as u64);
        }
        if let Some(p) = promotion {
            out.push_str(if p { ",\"promotion\":true" } else { ",\"promotion\":false" });
        }
        out.push('}');
    }

    /// Reconstructs a spec from a parsed JSON object.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        FrontendSpec::from_fields(
            j.get("kind").and_then(Json::as_str),
            j.get("total_uops").and_then(Json::as_usize),
            j.get("ways").and_then(Json::as_usize),
            j.get("promotion").and_then(Json::as_bool),
        )
    }

    /// Reads one spec object from `r` without building a tree, accepting
    /// exactly what [`FrontendSpec::from_json`] accepts (see
    /// `Row::read_json` for the error layering).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed input.
    pub(crate) fn read_json(r: &mut Reader<'_>) -> Result<Result<Self, String>, String> {
        let head = r.value()?;
        if head != Token::Obj {
            r.skip(head)?;
            return Ok(Err("frontend spec missing kind".into()));
        }
        // First member of each name decides, as `Json::get` does.
        let (mut kind, mut total_uops, mut ways, mut promotion) = (None, None, None, None);
        let mut first = true;
        while let Some(k) = r.next_key(first)? {
            first = false;
            match &*k {
                "kind" if kind.is_none() => kind = Some(r.str_value()?),
                "total_uops" if total_uops.is_none() => total_uops = Some(r.num_value()?),
                "ways" if ways.is_none() => ways = Some(r.num_value()?),
                "promotion" if promotion.is_none() => promotion = Some(r.bool_value()?),
                _ => r.skip_value()?,
            }
        }
        Ok(FrontendSpec::from_fields(
            kind.flatten().as_deref(),
            total_uops.flatten(),
            ways.flatten(),
            promotion.flatten(),
        ))
    }

    /// The spec named by `kind`, from the fields that kind needs.
    fn from_fields(
        kind: Option<&str>,
        total_uops: Option<usize>,
        ways: Option<usize>,
        promotion: Option<bool>,
    ) -> Result<Self, String> {
        let uops = || total_uops.ok_or("frontend spec missing total_uops");
        let ways = || ways.ok_or("frontend spec missing ways");
        match kind.ok_or("frontend spec missing kind")? {
            "ic" => Ok(FrontendSpec::Ic),
            "uop" => Ok(FrontendSpec::UopCache { total_uops: uops()? }),
            "bbtc" => Ok(FrontendSpec::Bbtc { total_uops: uops()? }),
            "tc" => Ok(FrontendSpec::Tc { total_uops: uops()?, ways: ways()? }),
            "xbc" => Ok(FrontendSpec::Xbc {
                total_uops: uops()?,
                ways: ways()?,
                promotion: promotion.ok_or("frontend spec missing promotion")?,
            }),
            other => Err(format!("unknown frontend kind {other:?}")),
        }
    }

    /// Checks the geometry by the rule the frontend's constructor
    /// asserts, so a spec from outside the program can be refused
    /// instead of panicking in [`FrontendSpec::instantiate`].
    ///
    /// # Errors
    ///
    /// Returns the constructor's message for an inconsistent geometry.
    pub fn check(&self) -> Result<(), String> {
        match *self {
            FrontendSpec::Ic => Ok(()),
            FrontendSpec::UopCache { total_uops } => uop_config(total_uops).check(),
            FrontendSpec::Bbtc { total_uops } => bbtc_config(total_uops).check(),
            FrontendSpec::Tc { total_uops, ways } => tc_config(total_uops, ways).check(),
            FrontendSpec::Xbc { total_uops, ways, promotion } => {
                xbc_config(total_uops, ways, promotion).check()
            }
        }
    }

    /// Builds a cold frontend instance.
    ///
    /// # Panics
    ///
    /// Panics if [`FrontendSpec::check`] fails.
    pub fn instantiate(&self) -> Box<dyn Frontend + Send> {
        match *self {
            FrontendSpec::Ic => Box::new(IcFrontend::new(IcFrontendConfig::default())),
            FrontendSpec::UopCache { total_uops } => {
                Box::new(UopCacheFrontend::new(uop_config(total_uops)))
            }
            FrontendSpec::Bbtc { total_uops } => {
                Box::new(BbtcFrontend::new(bbtc_config(total_uops)))
            }
            FrontendSpec::Tc { total_uops, ways } => {
                Box::new(TraceCacheFrontend::new(tc_config(total_uops, ways)))
            }
            FrontendSpec::Xbc { total_uops, ways, promotion } => {
                Box::new(XbcFrontend::new(xbc_config(total_uops, ways, promotion)))
            }
        }
    }
}

fn uop_config(total_uops: usize) -> UopCacheConfig {
    UopCacheConfig { total_uops, ..Default::default() }
}

fn bbtc_config(total_uops: usize) -> BbtcConfig {
    BbtcConfig { total_uops, ..Default::default() }
}

fn tc_config(total_uops: usize, ways: usize) -> TcConfig {
    TcConfig { total_uops, ways, ..Default::default() }
}

fn xbc_config(total_uops: usize, ways: usize, promotion: bool) -> XbcConfig {
    let promotion = if promotion { PromotionMode::Chain } else { PromotionMode::Off };
    XbcConfig { total_uops, ways, promotion, ..Default::default() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(FrontendSpec::Ic.label(), "ic");
        assert_eq!(FrontendSpec::tc_default().label(), "tc-32k");
        assert_eq!(FrontendSpec::xbc_default().label(), "xbc-32k");
        assert_eq!(FrontendSpec::Tc { total_uops: 8192, ways: 1 }.label(), "tc-8k-w1");
        assert_eq!(
            FrontendSpec::Xbc { total_uops: 4096, ways: 2, promotion: false }.label(),
            "xbc-4k-w2-nopromo"
        );
        assert_eq!(FrontendSpec::UopCache { total_uops: 100 }.label(), "uop-100");
        assert_eq!(FrontendSpec::Bbtc { total_uops: 8192 }.label(), "bbtc-8k");
    }

    #[test]
    fn instantiation_names() {
        assert_eq!(FrontendSpec::Ic.instantiate().name(), "ic");
        assert_eq!(FrontendSpec::tc_default().instantiate().name(), "tc");
        assert_eq!(FrontendSpec::xbc_default().instantiate().name(), "xbc");
        assert_eq!(FrontendSpec::UopCache { total_uops: 32768 }.instantiate().name(), "uopcache");
        assert_eq!(FrontendSpec::Bbtc { total_uops: 32768 }.instantiate().name(), "bbtc");
    }

    #[test]
    fn json_roundtrip() {
        let specs = [
            FrontendSpec::Ic,
            FrontendSpec::UopCache { total_uops: 12288 },
            FrontendSpec::Bbtc { total_uops: 8192 },
            FrontendSpec::Tc { total_uops: 16384, ways: 4 },
            FrontendSpec::Xbc { total_uops: 16384, ways: 2, promotion: true },
            FrontendSpec::Xbc { total_uops: 4096, ways: 4, promotion: false },
        ];
        for spec in specs {
            let j = Json::parse(&spec.to_json()).unwrap();
            assert_eq!(FrontendSpec::from_json(&j).unwrap(), spec);
        }
        assert!(FrontendSpec::from_json(&Json::parse("{\"kind\":\"zap\"}").unwrap()).is_err());
    }

    #[test]
    fn check_refuses_exactly_what_the_constructors_refuse() {
        let sizes = [0, 1, 3, 4, 16, 31, 32, 48, 64, 96, 128, 4096, 4100, 8192];
        for total_uops in sizes {
            let mut specs = vec![
                FrontendSpec::Ic,
                FrontendSpec::UopCache { total_uops },
                FrontendSpec::Bbtc { total_uops },
            ];
            for ways in [0, 1, 2, 3, 4, 16, 17, 64] {
                specs.push(FrontendSpec::Tc { total_uops, ways });
                specs.push(FrontendSpec::Xbc { total_uops, ways, promotion: ways % 2 == 0 });
            }
            for spec in specs {
                let built = std::panic::catch_unwind(|| spec.instantiate()).is_ok();
                assert_eq!(spec.check().is_ok(), built, "{spec:?}: {:?}", spec.check());
            }
        }
    }

    #[test]
    fn check_refuses_capacities_past_the_ceiling() {
        use xbc_uarch::MAX_TOTAL_UOPS;
        for total_uops in [MAX_TOTAL_UOPS + 32, 1 << 30, 1 << 62, usize::MAX - 31] {
            for spec in [
                FrontendSpec::UopCache { total_uops },
                FrontendSpec::Bbtc { total_uops },
                FrontendSpec::Tc { total_uops, ways: 4 },
                FrontendSpec::Xbc { total_uops, ways: 2, promotion: true },
            ] {
                let err = spec.check().expect_err("past the ceiling");
                assert!(err.contains("ceiling"), "{spec:?}: {err}");
                // The constructors assert the same rule, before sizing
                // anything.
                assert!(std::panic::catch_unwind(|| spec.instantiate()).is_err(), "{spec:?}");
            }
        }
        let largest = FrontendSpec::Xbc { total_uops: MAX_TOTAL_UOPS, ways: 2, promotion: true };
        assert_eq!(largest.check(), Ok(()));
    }

    #[test]
    fn keys_distinguish_all_fields() {
        let a = FrontendSpec::Xbc { total_uops: 16384, ways: 2, promotion: true };
        let b = FrontendSpec::Xbc { total_uops: 16384, ways: 2, promotion: false };
        assert_ne!(a.key(), b.key());
    }
}
