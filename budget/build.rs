//! Stamps the compiler version into the binary: every output names the
//! toolchain that built it.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "rustc unknown".to_owned(), |s| s.trim().to_owned());
    println!("cargo:rustc-env=BUDGET_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
