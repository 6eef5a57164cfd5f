// A tiny --key=value command-line flag parser for benches and examples.
// Every --key is stored and unknown keys are NOT rejected: a misspelled
// flag is silently ignored and its lookup falls back to the default.
#ifndef DUET_COMMON_FLAGS_H_
#define DUET_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>

namespace duet {

/// Parses "--key=value" / "--flag" arguments and serves typed lookups with
/// defaults. Also honors `DUET_BENCH_SCALE` via ScaleFactor() so the whole
/// bench suite can be grown or shrunk with one environment variable.
class Flags {
 public:
  Flags(int argc, char** argv);

  std::string GetString(const std::string& key, const std::string& def) const;
  int64_t GetInt(const std::string& key, int64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;
  bool Has(const std::string& key) const;

  /// Multiplier from env DUET_BENCH_SCALE (default 1.0).
  static double ScaleFactor();

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace duet

#endif  // DUET_COMMON_FLAGS_H_
