// kdash-lint-fixture: expect=raw-number-parse
#include <cstdlib>
#include <string>

long long Fire(const std::string& text) {
  return std::strtoll(text.c_str(), nullptr, 10) + std::atoi("7") +
         std::stoi(text);
}
