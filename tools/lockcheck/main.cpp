// lockcheck — concurrency static analysis for this repo.
//
// Usage:
//   lockcheck [--root DIR]... [FILE]...
//       Analyze the given files (plus every .h/.cpp under each --root) as
//       one program and print findings as `file:line: [rule] message`.
//       Exit 1 when anything is found.
//
//   lockcheck --self-test --fixtures DIR
//       Analyze each lockcheck_*.cpp fixture in DIR in isolation and
//       compare the findings against its `// LOCKCHECK-EXPECT: <rule>`
//       comments. Exit 1 on any mismatch. This is the tool's own
//       regression test (registered in ctest next to mobilint's).
//
// See analyzer.h for the rule catalogue and DESIGN.md section 15 for the
// lock hierarchy the lock-order rule protects.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer.h"

namespace {

namespace fs = std::filesystem;

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool source_like(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

int usage() {
  std::cerr << "usage: lockcheck [--root DIR]... [FILE]...\n"
               "       lockcheck --self-test --fixtures DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool self_test = false;
  std::string fixtures_dir;
  std::vector<std::string> roots;
  std::vector<std::string> paths;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--fixtures") {
      if (++a >= argc) return usage();
      fixtures_dir = argv[a];
    } else if (arg == "--root") {
      if (++a >= argc) return usage();
      roots.push_back(argv[a]);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }

  if (self_test) {
    if (fixtures_dir.empty()) return usage();
    std::vector<lockcheck::FileInput> fixtures;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(fixtures_dir, ec)) {
      const fs::path p = entry.path();
      if (p.filename().string().rfind("lockcheck_", 0) != 0) continue;
      if (!source_like(p)) continue;
      std::string src;
      if (!read_file(p.string(), &src)) {
        std::cerr << "lockcheck: cannot read " << p << "\n";
        return 2;
      }
      fixtures.push_back({p.string(), std::move(src)});
    }
    if (ec || fixtures.empty()) {
      std::cerr << "lockcheck: no lockcheck_* fixtures in " << fixtures_dir
                << "\n";
      return 2;
    }
    std::sort(fixtures.begin(), fixtures.end(),
              [](const auto& a, const auto& b) { return a.path < b.path; });
    const std::vector<std::string> failures = lockcheck::self_test(fixtures);
    if (!failures.empty()) {
      for (const std::string& f : failures) {
        std::cerr << "FAIL " << f << "\n";
      }
      std::cerr << failures.size() << " fixture(s) failed\n";
      return 1;
    }
    std::cout << "lockcheck self-test: " << fixtures.size()
              << " fixtures ok\n";
    return 0;
  }

  for (const std::string& root : roots) {
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(root, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_regular_file() && source_like(it->path())) {
        paths.push_back(it->path().string());
      }
    }
    if (ec) {
      std::cerr << "lockcheck: cannot walk " << root << ": " << ec.message()
                << "\n";
      return 2;
    }
  }
  if (paths.empty()) return usage();
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<lockcheck::FileInput> inputs;
  inputs.reserve(paths.size());
  for (const std::string& p : paths) {
    std::string src;
    if (!read_file(p, &src)) {
      std::cerr << "lockcheck: cannot read " << p << "\n";
      return 2;
    }
    inputs.push_back({p, std::move(src)});
  }

  const std::vector<lockcheck::Finding> findings = lockcheck::analyze(inputs);
  for (const lockcheck::Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  if (!findings.empty()) {
    std::cout << findings.size() << " finding(s)\n";
    return 1;
  }
  std::cout << "lockcheck: " << inputs.size() << " files clean\n";
  return 0;
}
