// Markdown link-and-anchor checker for the repo's documentation.
//
//   $ md_link_check README.md DESIGN.md docs/
//
// Walks every .md argument (directories recurse), extracts inline links
// [text](target) outside code fences and inline code spans, and fails
// with a per-link report when a relative target does not exist or a
// #anchor does not match any GitHub-slugged heading of the target file.
// External schemes (http, https, mailto) are skipped — this is an
// offline structural check, registered as the `docs_link_check` CTest
// job so broken cross-references fail the build, not the reader.
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Link {
  std::string target;
  std::size_t line = 0;
};

bool is_fence(const std::string& line) {
  std::size_t i = 0;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  return line.compare(i, 3, "```") == 0 || line.compare(i, 3, "~~~") == 0;
}

/// Strip `inline code` spans so links inside them are not parsed.
std::string strip_code_spans(const std::string& line) {
  std::string out;
  bool in_code = false;
  for (char c : line) {
    if (c == '`') {
      in_code = !in_code;
      continue;
    }
    if (!in_code) out.push_back(c);
  }
  return out;
}

/// GitHub-style heading slug: lowercase, drop punctuation, spaces to
/// hyphens. Duplicate slugs get -1, -2, ... suffixes in document order.
std::string slugify(const std::string& heading) {
  std::string slug;
  for (unsigned char c : heading) {
    if (std::isalnum(c)) {
      slug.push_back(static_cast<char>(std::tolower(c)));
    } else if (c == ' ' || c == '-' || c == '_') {
      slug.push_back(c == ' ' ? '-' : static_cast<char>(c));
    }
    // Other punctuation is dropped.
  }
  return slug;
}

/// All anchor slugs of one markdown file (headings outside code fences).
std::set<std::string> collect_anchors(const fs::path& file) {
  std::set<std::string> anchors;
  std::map<std::string, int> seen;
  std::ifstream in(file);
  std::string line;
  bool fenced = false;
  while (std::getline(in, line)) {
    if (is_fence(line)) {
      fenced = !fenced;
      continue;
    }
    if (fenced || line.empty() || line[0] != '#') continue;
    std::size_t level = 0;
    while (level < line.size() && line[level] == '#') ++level;
    if (level > 6 || level >= line.size() || line[level] != ' ') continue;
    std::string text = line.substr(level + 1);
    // Trim trailing whitespace and any closing ### decoration.
    while (!text.empty() &&
           (text.back() == ' ' || text.back() == '#' || text.back() == '\r')) {
      text.pop_back();
    }
    // Slug the raw heading text: GitHub keeps the contents of `inline
    // code` spans and drops only the backticks (slugify discards them
    // as punctuation). Stripping span *contents* here would mis-slug
    // every heading that names a file or identifier.
    std::string slug = slugify(text);
    const int n = seen[slug]++;
    if (n > 0) {
      slug += '-';
      slug += std::to_string(n);
    }
    anchors.insert(slug);
  }
  return anchors;
}

/// Inline [text](target) links of one file, outside fences and spans.
std::vector<Link> collect_links(const fs::path& file) {
  std::vector<Link> links;
  std::ifstream in(file);
  std::string raw;
  std::size_t line_no = 0;
  bool fenced = false;
  while (std::getline(in, raw)) {
    ++line_no;
    if (is_fence(raw)) {
      fenced = !fenced;
      continue;
    }
    if (fenced) continue;
    const std::string line = strip_code_spans(raw);
    for (std::size_t i = 0; i + 1 < line.size(); ++i) {
      if (line[i] != '[') continue;
      const std::size_t close = line.find(']', i + 1);
      if (close == std::string::npos || close + 1 >= line.size() ||
          line[close + 1] != '(') {
        continue;
      }
      const std::size_t end = line.find(')', close + 2);
      if (end == std::string::npos) continue;
      std::string target = line.substr(close + 2, end - close - 2);
      // Optional "title" after the URL.
      const std::size_t space = target.find(' ');
      if (space != std::string::npos) target.resize(space);
      if (!target.empty()) links.push_back({target, line_no});
      i = end;
    }
  }
  return links;
}

bool external(const std::string& target) {
  return target.rfind("http://", 0) == 0 || target.rfind("https://", 0) == 0 ||
         target.rfind("mailto:", 0) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: md_link_check <file-or-dir>...\n");
    return 2;
  }
  std::vector<fs::path> files;
  for (int i = 1; i < argc; ++i) {
    const fs::path p(argv[i]);
    if (fs::is_directory(p)) {
      for (const auto& e : fs::recursive_directory_iterator(p)) {
        if (e.is_regular_file() && e.path().extension() == ".md") {
          files.push_back(e.path());
        }
      }
    } else if (fs::is_regular_file(p)) {
      files.push_back(p);
    } else {
      std::fprintf(stderr, "md_link_check: no such file: %s\n", argv[i]);
      return 2;
    }
  }

  int broken = 0;
  std::size_t checked = 0;
  // Heading sets are parsed once per target file, not once per link.
  std::map<fs::path, std::set<std::string>> anchor_cache;
  for (const auto& file : files) {
    for (const auto& link : collect_links(file)) {
      if (external(link.target)) continue;
      ++checked;
      std::string path_part = link.target;
      std::string anchor;
      const std::size_t hash = path_part.find('#');
      if (hash != std::string::npos) {
        anchor = path_part.substr(hash + 1);
        path_part.resize(hash);
      }
      fs::path target_file = file;
      if (!path_part.empty()) {
        target_file = file.parent_path() / path_part;
        if (!fs::exists(target_file)) {
          std::fprintf(stderr, "%s:%zu: broken link: %s (missing %s)\n",
                       file.string().c_str(), link.line, link.target.c_str(),
                       target_file.string().c_str());
          ++broken;
          continue;
        }
      }
      if (!anchor.empty() && target_file.extension() == ".md") {
        const fs::path key = target_file.lexically_normal();
        auto it = anchor_cache.find(key);
        if (it == anchor_cache.end()) {
          it = anchor_cache.emplace(key, collect_anchors(target_file)).first;
        }
        const auto& anchors = it->second;
        if (anchors.find(anchor) == anchors.end()) {
          std::fprintf(stderr, "%s:%zu: broken anchor: %s (no heading #%s in %s)\n",
                       file.string().c_str(), link.line, link.target.c_str(),
                       anchor.c_str(), target_file.string().c_str());
          ++broken;
        }
      }
    }
  }
  std::printf("md_link_check: %zu files, %zu internal links, %d broken\n",
              files.size(), checked, broken);
  return broken == 0 ? 0 : 1;
}
