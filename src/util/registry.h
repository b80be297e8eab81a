// Name-indexed construction of pluggable products: allocation schemes
// (core::AllocatorRegistry), GP solver backends (gp::SolverRegistry) and
// runtime controller policies (sim::ControllerRegistry) are all this one
// template, so CLI flags and specs pick an implementation by its stable name
// without compiling against its option structs.
//
// Each registry names its product in diagnostics ("unknown allocation scheme
// 'x' (registered: ...)") and may install a `Finish` hook that runs on every
// product `make` returns — the allocator registry stamps the registered name,
// the controller registry validates the config.  Entries keep registration
// order, which is the order of `names()` and of the generated catalogs.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace hydra::util {

template <typename Product, typename... Args>
class Registry {
 public:
  using Factory = std::function<std::unique_ptr<Product>(Args...)>;
  /// Runs on every product make() returns, with its registered name and the
  /// make() arguments.
  using Finish = std::function<void(Product&, const std::string& name, Args...)>;

  /// `noun` names the product in error messages ("allocation scheme").
  explicit Registry(std::string noun, Finish finish = nullptr)
      : noun_(std::move(noun)), finish_(std::move(finish)) {}

  /// Registers a product.  Throws std::invalid_argument on an empty or
  /// duplicate name and on a null factory.
  void add(std::string name, std::string description, Factory factory) {
    if (name.empty()) throw std::invalid_argument("empty " + noun_ + " name");
    if (!factory) {
      throw std::invalid_argument("null factory for " + noun_ + " '" + name + "'");
    }
    if (find(name) != nullptr) {
      throw std::invalid_argument("duplicate " + noun_ + " name '" + name + "'");
    }
    entries_.push_back({std::move(name), std::move(description), std::move(factory)});
  }

  bool contains(const std::string& name) const { return find(name) != nullptr; }

  /// Throws std::invalid_argument, listing the registered names, when `name`
  /// is unknown — the cheap existence check for up-front spec validation.
  void require(const std::string& name) const { entry(name); }

  /// Constructs the product registered under `name`, then runs the Finish
  /// hook.  Throws std::invalid_argument for unknown names.
  std::unique_ptr<Product> make(const std::string& name, Args... args) const {
    const Entry& e = entry(name);
    std::unique_ptr<Product> product = e.factory(args...);
    if (finish_) finish_(*product, e.name, args...);
    return product;
  }

  /// make() with value-initialized arguments (e.g. default SolveOptions).
  template <std::size_t N = sizeof...(Args), std::enable_if_t<(N > 0), int> = 0>
  std::unique_ptr<Product> make(const std::string& name) const {
    return make(name, std::decay_t<Args>{}...);
  }

  /// Constructs every named product, in order.  Throws std::invalid_argument
  /// when `names` is empty or contains an unknown name.
  std::vector<std::unique_ptr<Product>> make_all(const std::vector<std::string>& names,
                                                 Args... args) const {
    if (names.empty()) throw std::invalid_argument(noun_ + " selection names none");
    std::vector<std::unique_ptr<Product>> products;
    products.reserve(names.size());
    for (const auto& name : names) products.push_back(make(name, args...));
    return products;
  }

  /// Registered names, in registration order.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& e : entries_) out.push_back(e.name);
    return out;
  }

  /// The registration-time description of `name` (throws when unknown).
  const std::string& description(const std::string& name) const {
    return entry(name).description;
  }

  /// The process-wide registry pre-populated with the built-in products;
  /// each instantiation defines it beside its built-ins.
  static Registry& global();

 private:
  struct Entry {
    std::string name;
    std::string description;
    Factory factory;
  };

  const Entry* find(const std::string& name) const {
    for (const auto& e : entries_) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }

  const Entry& entry(const std::string& name) const {
    if (const Entry* e = find(name)) return *e;
    std::string known;
    for (const auto& e : entries_) {
      if (!known.empty()) known += ", ";
      known += e.name;
    }
    throw std::invalid_argument("unknown " + noun_ + " '" + name + "' (registered: " +
                                known + ")");
  }

  std::string noun_;
  Finish finish_;
  std::vector<Entry> entries_;
};

/// Renders a registry as a generated markdown catalog: `preamble` (title,
/// prose and table header) followed by one "| `name` | description |" row per
/// entry, in registration order.  A pure function of the registry contents,
/// so the test_*_catalog suites can diff the committed docs/*-catalog.md files
/// against the live registries byte for byte.
template <typename Product, typename... Args>
std::string catalog_markdown(const Registry<Product, Args...>& registry,
                             std::string_view preamble) {
  std::string out(preamble);
  for (const auto& name : registry.names()) {
    out += "| `" + name + "` | " + registry.description(name) + " |\n";
  }
  return out;
}

}  // namespace hydra::util
