// The svc spelling of the repo's JSON codec, which lives in obs/json.hpp.
#pragma once

#include "obs/json.hpp"

namespace bvc::svc {

using obs::append_json_escaped;
using obs::Json;

}  // namespace bvc::svc
