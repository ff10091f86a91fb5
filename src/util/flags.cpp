#include "util/flags.h"

#include <cstdlib>

#include "util/check.h"

namespace corral {
namespace {

bool parse_long(const std::string& text, long* out) {
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return false;
  *out = value;
  return true;
}

bool parse_double(const std::string& text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

FlagParser::FlagParser(std::string program_description)
    : description_(std::move(program_description)) {}

void FlagParser::add_flag(const std::string& name, Type type,
                          std::string value, std::string help) {
  require(!parsed_, "FlagParser: cannot add flags after parse()");
  require(!name.empty() && name.rfind("--", 0) != 0,
          "FlagParser: flag names must be non-empty without '--'");
  Flag flag;
  flag.type = type;
  flag.help = std::move(help);
  flag.value = std::move(value);
  require(flags_.emplace(name, std::move(flag)).second,
          "FlagParser: duplicate flag name");
}

void FlagParser::add_string(const std::string& name,
                            std::string default_value, std::string help) {
  add_flag(name, Type::kString, std::move(default_value), std::move(help));
}

void FlagParser::add_int(const std::string& name, long default_value,
                         std::string help) {
  add_flag(name, Type::kInt, std::to_string(default_value), std::move(help));
}

void FlagParser::add_double(const std::string& name, double default_value,
                            std::string help) {
  add_flag(name, Type::kDouble, std::to_string(default_value),
           std::move(help));
}

void FlagParser::add_bool(const std::string& name, bool default_value,
                          std::string help) {
  add_flag(name, Type::kBool, default_value ? "true" : "false",
           std::move(help));
}

void FlagParser::add_string_list(const std::string& name, std::string help) {
  add_flag(name, Type::kStringList, "", std::move(help));
}

void FlagParser::add_choice(const std::string& name,
                            std::vector<std::string> choices,
                            std::string default_value, std::string help) {
  require(!choices.empty(), "FlagParser: choice flags need at least one value");
  bool default_valid = false;
  for (const std::string& choice : choices) {
    require(!choice.empty(), "FlagParser: empty string in choice list");
    if (choice == default_value) default_valid = true;
  }
  require(default_valid,
          "FlagParser: choice default must be one of the choices");
  add_flag(name, Type::kChoice, std::move(default_value), std::move(help));
  flags_.at(name).choices = std::move(choices);
}

bool FlagParser::set_value(Flag& flag, const std::string& text) {
  switch (flag.type) {
    case Type::kString:
      flag.value = text;
      return true;
    case Type::kStringList:
      flag.values.push_back(text);
      return true;
    case Type::kInt: {
      long value = 0;
      if (!parse_long(text, &value)) return false;
      flag.value = std::to_string(value);
      return true;
    }
    case Type::kDouble: {
      double value = 0;
      if (!parse_double(text, &value)) return false;
      flag.value = text;
      return true;
    }
    case Type::kBool:
      if (text == "true" || text == "1") {
        flag.value = "true";
        return true;
      }
      if (text == "false" || text == "0") {
        flag.value = "false";
        return true;
      }
      return false;
    case Type::kChoice:
      for (const std::string& choice : flag.choices) {
        if (text == choice) {
          flag.value = text;
          return true;
        }
      }
      return false;
  }
  return false;
}

bool FlagParser::parse(int argc, const char* const* argv, std::ostream& out) {
  parsed_ = true;
  if (argc > 0) program_name_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      print_usage(out);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      out << "unexpected positional argument: " << arg << "\n";
      print_usage(out);
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = flags_.find(arg);
    if (it == flags_.end()) {
      out << "unknown flag: --" << arg << "\n";
      print_usage(out);
      return false;
    }
    Flag& flag = it->second;
    if (!has_value) {
      if (flag.type == Type::kBool) {
        value = "true";  // bare boolean flag
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        out << "flag --" << arg << " requires a value\n";
        print_usage(out);
        return false;
      }
    }
    if (!set_value(flag, value)) {
      out << "invalid value for --" << arg << ": " << value;
      if (flag.type == Type::kChoice) {
        out << " (valid values:";
        for (const std::string& choice : flag.choices) out << " " << choice;
        out << ")";
      }
      out << "\n";
      print_usage(out);
      return false;
    }
    flag.provided = true;
  }
  return true;
}

const FlagParser::Flag& FlagParser::flag_of(const std::string& name,
                                            Type type) const {
  const auto it = flags_.find(name);
  require(it != flags_.end(), "FlagParser: unknown flag");
  require(it->second.type == type, "FlagParser: flag type mismatch");
  return it->second;
}

std::string FlagParser::get_string(const std::string& name) const {
  return flag_of(name, Type::kString).value;
}

long FlagParser::get_int(const std::string& name) const {
  long value = 0;
  ensure(parse_long(flag_of(name, Type::kInt).value, &value),
         "FlagParser: stored int unparsable");
  return value;
}

double FlagParser::get_double(const std::string& name) const {
  double value = 0;
  ensure(parse_double(flag_of(name, Type::kDouble).value, &value),
         "FlagParser: stored double unparsable");
  return value;
}

bool FlagParser::get_bool(const std::string& name) const {
  return flag_of(name, Type::kBool).value == "true";
}

std::vector<std::string> FlagParser::get_string_list(
    const std::string& name) const {
  return flag_of(name, Type::kStringList).values;
}

std::string FlagParser::get_choice(const std::string& name) const {
  return flag_of(name, Type::kChoice).value;
}

bool FlagParser::provided(const std::string& name) const {
  const auto it = flags_.find(name);
  require(it != flags_.end(), "FlagParser: unknown flag");
  return it->second.provided;
}

void FlagParser::print_usage(std::ostream& out) const {
  out << description_ << "\n\nusage: " << program_name_ << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name << " (default: " << flag.value << ")";
    if (flag.type == Type::kChoice) {
      out << " [";
      for (std::size_t i = 0; i < flag.choices.size(); ++i) {
        out << (i == 0 ? "" : "|") << flag.choices[i];
      }
      out << "]";
    }
    out << "\n      " << flag.help << "\n";
  }
}

}  // namespace corral
