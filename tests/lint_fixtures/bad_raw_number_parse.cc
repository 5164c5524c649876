// kdash-lint-fixture: expect=raw-number-parse
#include <charconv>
#include <cstdlib>
#include <string>

long long Fire(const std::string& text) {
  long long parsed = 0;
  std::from_chars(text.data(), text.data() + text.size(), parsed);
  return std::strtoll(text.c_str(), nullptr, 10) + std::atoi("7") +
         std::stoi(text) + parsed;
}
