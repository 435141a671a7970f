#include "core_params.h"

#include "common/log.h"

namespace smtflex {

const char *
coreTypeTag(CoreType type)
{
    switch (type) {
      case CoreType::kBig:
        return "B";
      case CoreType::kMedium:
        return "m";
      case CoreType::kSmall:
        return "s";
    }
    return "?";
}

CoreParams
CoreParams::big()
{
    CoreParams p;
    p.name = "big";
    p.type = CoreType::kBig;
    p.outOfOrder = true;
    p.width = 4;
    p.robSize = 128;
    p.maxSmtContexts = 6;
    p.intUnits = 3;
    p.ldstUnits = 2;
    p.mulUnits = 1;
    p.fpUnits = 1;
    p.mispredictPenalty = 10;
    p.l1i = {32 * 1024, 4};
    p.l1d = {32 * 1024, 4};
    p.l2 = {256 * 1024, 8};
    p.latL1 = 3;
    p.latL2 = 10;
    p.mshrs = 16;
    return p;
}

CoreParams
CoreParams::medium()
{
    CoreParams p;
    p.name = "medium";
    p.type = CoreType::kMedium;
    p.outOfOrder = true;
    p.width = 2;
    p.robSize = 32;
    p.maxSmtContexts = 3;
    p.intUnits = 2;
    p.ldstUnits = 1;
    p.mulUnits = 1;
    p.fpUnits = 1;
    p.mispredictPenalty = 8;
    p.l1i = {16 * 1024, 2};
    p.l1d = {16 * 1024, 2};
    p.l2 = {128 * 1024, 4};
    p.latL1 = 3;
    p.latL2 = 9;
    p.mshrs = 8;
    return p;
}

CoreParams
CoreParams::small()
{
    CoreParams p;
    p.name = "small";
    p.type = CoreType::kSmall;
    p.outOfOrder = false;
    p.width = 2;
    p.robSize = 0;
    p.maxSmtContexts = 2; // fine-grained multithreading
    p.intUnits = 2;
    p.ldstUnits = 1;
    p.mulUnits = 1;
    p.fpUnits = 1;
    p.latIntMul = 5;
    p.latFp = 5;
    p.mispredictPenalty = 5; // short in-order pipeline
    p.l1i = {6 * 1024, 2};
    p.l1d = {6 * 1024, 2};
    p.l2 = {48 * 1024, 4};
    p.latL1 = 2;
    p.latL2 = 8;
    p.mshrs = 4;
    return p;
}

CoreParams
CoreParams::withBigCaches() const
{
    CoreParams p = *this;
    const CoreParams b = big();
    p.l1i = b.l1i;
    p.l1d = b.l1d;
    p.l2 = b.l2;
    p.name = name + "_lc";
    return p;
}

CoreParams
CoreParams::withFrequency(double ghz) const
{
    CoreParams p = *this;
    p.freqGHz = ghz;
    p.name = name + "_hf";
    return p;
}

namespace {

void
validateGeometry(const std::string &core, const char *which,
                 const CacheGeometry &geometry)
{
    if (geometry.sizeBytes == 0)
        fatal("CoreParams ", core, ": ", which, ".sizeBytes must be > 0");
    if (geometry.assoc == 0)
        fatal("CoreParams ", core, ": ", which, ".assoc must be > 0");
    if (!geometry.lineSizeValid())
        fatal("CoreParams ", core, ": ", which,
              ".lineSize must be a power of two (got ", geometry.lineSize,
              ")");
    if (geometry.numLines() < geometry.assoc)
        fatal("CoreParams ", core, ": ", which,
              " smaller than one set (", geometry.sizeBytes, " bytes, ",
              geometry.assoc, "-way)");
}

} // namespace

void
CoreParams::validate() const
{
    if (width == 0 || width > 16)
        fatal("CoreParams ", name, ": bad width");
    if (outOfOrder && robSize < width)
        fatal("CoreParams ", name, ": ROB smaller than width");
    if (maxSmtContexts == 0)
        fatal("CoreParams ", name, ": need at least one context");
    if (outOfOrder && robSize / maxSmtContexts == 0)
        fatal("CoreParams ", name, ": ROB partition would be empty");
    if (intUnits == 0 || ldstUnits == 0)
        fatal("CoreParams ", name, ": need int and ld/st units");
    if (mulUnits == 0 || fpUnits == 0)
        fatal("CoreParams ", name, ": need mul and fp units");
    if (latL1 == 0)
        fatal("CoreParams ", name, ": latL1 must be > 0");
    validateGeometry(name, "l1i", l1i);
    validateGeometry(name, "l1d", l1d);
    validateGeometry(name, "l2", l2);
    if (freqGHz <= 0.0)
        fatal("CoreParams ", name, ": bad frequency");
    if (mshrs == 0)
        fatal("CoreParams ", name, ": need at least one MSHR");
}

} // namespace smtflex
