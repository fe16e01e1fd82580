#include "trace/trace_io.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

namespace vepro::trace
{

namespace
{

/// Refuse implausible lengths before allocating for them: a legitimate
/// block holds ~4096 ops (a few tens of KiB encoded), so these caps are
/// orders of magnitude above anything FileSink writes while keeping a
/// corrupt length field from turning into a multi-GiB allocation.
constexpr uint32_t kMaxBlockPayload = 1u << 26;
constexpr uint64_t kMaxBlockRecords = 1u << 20;
constexpr uint32_t kMaxMetadataBytes = 1u << 24;

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// One FNV-1a step. The codec folds every payload byte in as it writes
/// or reads it, so the checksum costs no second pass over the payload.
inline uint64_t
fnvStep(uint64_t h, uint8_t byte)
{
    return (h ^ byte) * kFnvPrime;
}

uint64_t
fnv1a64(uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h = fnvStep(h, p[i]);
    }
    return h;
}

[[noreturn]] void
fail(const std::string &path, uint64_t offset, const std::string &what)
{
    throw std::runtime_error("trace: " + path + " @ offset " +
                             std::to_string(offset) + ": " + what);
}

uint64_t
zigzag(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

int64_t
unzigzag(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Longest LEB128 varint of a u64.
constexpr size_t kMaxVarint = 10;

/// Unchecked cursor into a payload buffer already sized for the worst
/// case (maxPayloadBytes), folding each byte it writes into @ref sum.
struct ByteWriter {
    uint8_t *p;
    uint64_t sum;

    void
    u8(uint8_t byte)
    {
        *p++ = byte;
        sum = fnvStep(sum, byte);
    }

    void
    varint(uint64_t v)
    {
        while (v >= 0x80) {
            u8(static_cast<uint8_t>(v) | 0x80);
            v >>= 7;
        }
        u8(static_cast<uint8_t>(v));
    }
};

[[noreturn]] void
throwTruncated(const char *what)
{
    throw std::runtime_error(std::string("truncated ") + what);
}

/// A varint's value and its length in bytes.
struct VarintSpan {
    uint64_t value;
    size_t len;
};

/// Scan the varint at @p p without consuming it. Kept apart from the
/// reader so the reader's cursor and checksum stay in registers.
VarintSpan
scanVarint(const uint8_t *p, const uint8_t *end, const char *what)
{
    uint64_t v = 0;
    for (size_t i = 0; i < kMaxVarint; ++i) {
        if (p + i == end) {
            throwTruncated(what);
        }
        v |= static_cast<uint64_t>(p[i] & 0x7f) << (7 * i);
        if ((p[i] & 0x80) == 0) {
            return {v, i + 1};
        }
    }
    throw std::runtime_error(std::string("overlong varint in ") + what);
}

/// Bounds-checked cursor over one block payload, folding each byte it
/// consumes into @ref sum. Errors are plain std::runtime_error; the
/// caller re-throws with path + block offset.
struct ByteReader {
    const uint8_t *p;
    const uint8_t *end;
    uint64_t sum;

    uint8_t
    u8(const char *what)
    {
        if (p == end) {
            throwTruncated(what);
        }
        const uint8_t byte = *p++;
        sum = fnvStep(sum, byte);
        return byte;
    }

    uint64_t
    varint(const char *what)
    {
        if (p != end && *p < 0x80) {  // one-byte varints dominate
            return u8(what);
        }
        const VarintSpan v = scanVarint(p, end, what);
        for (size_t i = 0; i < v.len; ++i) {
            sum = fnvStep(sum, p[i]);
        }
        p += v.len;
        return v.value;
    }
};

/// One op-descriptor dictionary entry: the flags byte plus the dep
/// pair. Real op streams cycle through a handful of (class, taken,
/// foreign, deps) shapes per block, so most ops reference an entry with
/// a one-byte code instead of re-spelling 1-3 descriptor bytes.
struct OpDesc {
    uint8_t flags = 0;
    uint8_t dep1 = 0;
    uint8_t dep2 = 0;

    bool
    operator==(const OpDesc &o) const
    {
        return flags == o.flags && dep1 == o.dep1 && dep2 == o.dep2;
    }
};

/// A block's dictionary (op descriptors or event values) in code order.
/// The first kInline entries live in place, so a real block's table
/// never touches the heap (slots at and past @ref n are unset); a block
/// with more distinct entries spills the rest into @ref tail.
template <typename T>
struct BlockTable {
    static constexpr size_t kInline = 512;

    T head[kInline];
    size_t n = 0;
    std::vector<T> tail;

    size_t size() const { return n; }

    const T &
    operator[](size_t i) const
    {
        return i < kInline ? head[i] : tail[i - kInline];
    }

    void
    push(const T &v)
    {
        if (n < kInline) {
            head[n] = v;
        } else {
            tail.push_back(v);
        }
        ++n;
    }
};

/// The key an encoder-side index hashes: the descriptor bytes, or the
/// event value itself.
uint64_t
keyOf(const OpDesc &d)
{
    return d.flags | static_cast<uint64_t>(d.dep1) << 8 |
           static_cast<uint64_t>(d.dep2) << 16;
}

uint64_t
keyOf(uint64_t v)
{
    return v;
}

/// Encoder-side dictionary: code lookup through a fixed open-addressed
/// index over the in-place entries (half full at most, so probing ends)
/// and, past them, an in-order scan of the spilled tail. Entries are
/// distinct, so the index finds a key's first and only position and
/// the codes match a plain first-match scan byte for byte.
template <typename T>
struct BlockIndex : BlockTable<T> {
    static constexpr int kSlotBits = 10;
    static constexpr size_t kSlots = size_t{1} << kSlotBits;
    static_assert(kSlots >= 2 * BlockTable<T>::kInline);
    static constexpr size_t npos = ~size_t{0};

    uint16_t slot[kSlots] = {};  ///< Entry index + 1; 0 = empty.

    /// The code index of @p key, or npos after appending it.
    size_t
    findOrAdd(const T &key)
    {
        size_t s = static_cast<size_t>(
            (keyOf(key) * 0x9e3779b97f4a7c15ULL) >> (64 - kSlotBits));
        for (; slot[s] != 0; s = (s + 1) & (kSlots - 1)) {
            if (this->head[slot[s] - 1] == key) {
                return slot[s] - 1;
            }
        }
        for (size_t i = 0; i < this->tail.size(); ++i) {
            if (this->tail[i] == key) {
                return BlockTable<T>::kInline + i;
            }
        }
        if (this->n < BlockTable<T>::kInline) {
            slot[s] = static_cast<uint16_t>(this->n + 1);
        }
        this->push(key);
        return npos;
    }
};

/// Upper bound on encodeBlock's output for @p block: the two counts,
/// per op a descriptor (code varint, or 0 + flags + deps) and the pc
/// and addr deltas, per event the position delta, the kind byte and a
/// value (code varint, or 0 + the literal varint).
size_t
maxPayloadBytes(const TraceBlock &block)
{
    return 2 * kMaxVarint + block.ops.size() * 3 * kMaxVarint +
           block.events.size() * (2 * kMaxVarint + 2);
}

/// Encode @p block into @p buf (grown to the worst case, never shrunk)
/// and fold every written byte into @p sum. Returns the payload length.
/// All dictionaries and delta chains reset per block so every block
/// decodes independently of its predecessors.
size_t
encodeBlock(const TraceBlock &block, std::string &buf, uint64_t &sum)
{
    const size_t need = maxPayloadBytes(block);
    if (buf.size() < need) {
        buf.resize(need);
    }
    uint8_t *const begin = reinterpret_cast<uint8_t *>(buf.data());
    ByteWriter w{begin, sum};
    w.varint(block.ops.size());
    w.varint(block.events.size());
    BlockIndex<OpDesc> descs;
    uint64_t prev_pc = 0;
    uint64_t prev_addr[kNumOpClasses] = {};
    for (const TraceOp &op : block.ops) {
        uint8_t flags = static_cast<uint8_t>(op.cls) & 0x0f;
        const bool has_addr = op.addr != 0;
        const bool has_deps = (op.dep1 | op.dep2) != 0;
        if (op.taken) {
            flags |= 0x10;
        }
        if (op.foreign) {
            flags |= 0x20;
        }
        if (has_addr) {
            flags |= 0x40;
        }
        if (has_deps) {
            flags |= 0x80;
        }
        // Descriptor: a dictionary code when seen before in this block
        // (the overwhelmingly common case), else 0 + the literal bytes.
        const OpDesc desc{flags, has_deps ? op.dep1 : uint8_t{0},
                          has_deps ? op.dep2 : uint8_t{0}};
        const size_t idx = descs.findOrAdd(desc);
        if (idx != descs.npos) {
            w.varint(idx + 1);
        } else {
            w.u8(0);
            w.u8(flags);
            if (has_deps) {
                w.u8(op.dep1);
                w.u8(op.dep2);
            }
        }
        w.varint(zigzag(static_cast<int64_t>(op.pc - prev_pc)));
        prev_pc = op.pc;
        if (has_addr) {
            // Per-class address chains: loads stride against the last
            // load, stores against the last store, so interleaved
            // streams keep their per-stream locality.
            uint64_t &prev = prev_addr[static_cast<int>(op.cls)];
            w.varint(zigzag(static_cast<int64_t>(op.addr - prev)));
            prev = op.addr;
        }
    }
    BlockIndex<uint64_t> values;
    uint64_t prev_pos = 0;
    for (const TraceBlock::Event &e : block.events) {
        w.varint(e.pos - prev_pos);
        prev_pos = e.pos;
        uint8_t packed = e.kind == TraceBlock::Event::Kernel ? 1 : 0;
        if (e.taken) {
            packed |= 2;
        }
        w.u8(packed);
        // Event values (branch pcs, kernel sites) are drawn from a
        // small recurring set but look like random 64-bit integers, so
        // delta coding is useless: dictionary-code them instead.
        const size_t idx = values.findOrAdd(e.value);
        if (idx != values.npos) {
            w.varint(idx + 1);
        } else {
            w.u8(0);
            w.varint(e.value);
        }
    }
    sum = w.sum;
    return static_cast<size_t>(w.p - begin);
}

/// Decode one payload into @p block (cleared first), folding every
/// payload byte into the running checksum @p sum; returns the updated
/// checksum. @p delta_fault is the vepro-check tracefile-delta
/// injection: every op pc delta decodes off by one.
uint64_t
decodeBlock(const uint8_t *data, size_t n, uint64_t sum, TraceBlock &block,
            bool delta_fault)
{
    ByteReader r{data, data + n, sum};
    const uint64_t op_count = r.varint("op count");
    const uint64_t event_count = r.varint("event count");
    if (op_count > kMaxBlockRecords || event_count > kMaxBlockRecords) {
        throw std::runtime_error("implausible record count");
    }
    block.clear();
    block.ops.resize(op_count);
    block.events.reserve(event_count);
    BlockTable<OpDesc> descs;
    uint64_t prev_pc = 0;
    uint64_t prev_addr[kNumOpClasses] = {};
    for (TraceOp &op : block.ops) {
        const uint64_t code = r.varint("op descriptor code");
        OpDesc desc;
        if (code == 0) {
            desc.flags = r.u8("op flags");
            const uint8_t cls = desc.flags & 0x0f;
            if (cls >= kNumOpClasses) {
                throw std::runtime_error("bad op class " +
                                         std::to_string(cls));
            }
            if ((desc.flags & 0x80) != 0) {
                desc.dep1 = r.u8("op deps");
                desc.dep2 = r.u8("op deps");
            }
            descs.push(desc);
        } else {
            if (code > descs.size()) {
                throw std::runtime_error("op descriptor code " +
                                         std::to_string(code) +
                                         " past the block's " +
                                         std::to_string(descs.size()) +
                                         " descriptors");
            }
            desc = descs[code - 1];
        }
        op.cls = static_cast<OpClass>(desc.flags & 0x0f);
        op.taken = (desc.flags & 0x10) != 0;
        op.foreign = (desc.flags & 0x20) != 0;
        op.dep1 = desc.dep1;
        op.dep2 = desc.dep2;
        int64_t pc_delta = unzigzag(r.varint("pc delta"));
        if (delta_fault) {
            ++pc_delta;
        }
        op.pc = prev_pc + static_cast<uint64_t>(pc_delta);
        prev_pc = op.pc;
        if ((desc.flags & 0x40) != 0) {
            uint64_t &prev = prev_addr[static_cast<int>(op.cls)];
            op.addr = prev + static_cast<uint64_t>(
                                 unzigzag(r.varint("addr delta")));
            prev = op.addr;
        }
    }
    BlockTable<uint64_t> values;
    uint64_t prev_pos = 0;
    for (uint64_t i = 0; i < event_count; ++i) {
        TraceBlock::Event e;
        const uint64_t pos = prev_pos + r.varint("event position");
        if (pos > op_count) {
            throw std::runtime_error("event position " + std::to_string(pos) +
                                     " past the block's " +
                                     std::to_string(op_count) + " ops");
        }
        prev_pos = pos;
        e.pos = static_cast<uint32_t>(pos);
        const uint8_t packed = r.u8("event kind");
        if ((packed & ~static_cast<uint8_t>(3)) != 0) {
            throw std::runtime_error("bad event kind byte");
        }
        e.kind = (packed & 1) != 0 ? TraceBlock::Event::Kernel
                                   : TraceBlock::Event::Branch;
        e.taken = (packed & 2) != 0;
        const uint64_t code = r.varint("event value code");
        if (code == 0) {
            e.value = r.varint("event value");
            values.push(e.value);
        } else {
            if (code > values.size()) {
                throw std::runtime_error("event value code " +
                                         std::to_string(code) +
                                         " past the block's " +
                                         std::to_string(values.size()) +
                                         " values");
            }
            e.value = values[code - 1];
        }
        block.events.push_back(e);
    }
    if (r.p != r.end) {
        throw std::runtime_error("trailing bytes in block payload");
    }
    return r.sum;
}

/// The vepro-check tracefile-sum injection, applied alike by writer and
/// reader: the running checksum leaves the first half of each payload
/// out, so a flip there that still decodes goes unnoticed.
uint64_t
faultySum(uint64_t sum, const void *payload, size_t n)
{
    return fnv1a64(sum, static_cast<const char *>(payload) + n / 2,
                   n - n / 2);
}

uint64_t
countBranchEvents(const TraceBlock &block)
{
    uint64_t n = 0;
    for (const TraceBlock::Event &e : block.events) {
        if (e.kind == TraceBlock::Event::Branch) {
            ++n;
        }
    }
    return n;
}

/// The retired fixed-width formats: recognise their magics so the error
/// says "old format" instead of "corrupt file".
bool
isLegacyMagic(const char magic[4])
{
    return std::memcmp(magic, "VEPB", 4) == 0 ||
           std::memcmp(magic, "VEPO", 4) == 0;
}

[[noreturn]] void
failLegacy(const std::string &path, const char magic[4])
{
    throw std::runtime_error(
        "trace: " + path + ": legacy '" + std::string(magic, 4) +
        "' fixed-width trace (pre-TraceFile v" +
        std::to_string(kTraceFileVersion) +
        "); this build reads 'VETF' TraceFiles only — recapture with "
        "trace::FileSink");
}

} // namespace

// ---------------------------------------------------------------------------
// FileSink

FileSink::FileSink(std::string path) : path_(std::move(path))
{
    file_ = std::fopen(path_.c_str(), "wb");
    if (file_ == nullptr) {
        throw std::runtime_error("trace: cannot open " + path_ +
                                 " for writing");
    }
    stage_.reserveStandard();
    checksum_ = kFnvOffset;
    write("VETF", 4);
    const uint32_t version = kTraceFileVersion;
    write(&version, sizeof version);
}

FileSink::~FileSink()
{
    if (file_ != nullptr) {
        std::fclose(file_);  // unsealed: a torn file readers reject
    }
}

void
FileSink::write(const void *p, size_t n)
{
    if (std::fwrite(p, 1, n, file_) != n) {
        throw std::runtime_error("trace: " + path_ + ": write failed");
    }
    bytes_written_ += n;
}

void
FileSink::writeBlock(const TraceBlock &block)
{
    if (block.empty()) {
        return;
    }
    uint64_t sum = checksum_;
    const size_t n = encodeBlock(block, payload_, sum);
    checksum_ = sum_fault_ ? faultySum(checksum_, payload_.data(), n) : sum;
    const uint32_t len = static_cast<uint32_t>(n);
    write(&len, sizeof len);
    write(payload_.data(), n);
    op_count_ += block.ops.size();
    branch_count_ += countBranchEvents(block);
    ++block_count_;
}

void
FileSink::flushStage()
{
    if (!stage_.empty()) {
        writeBlock(stage_);
        stage_.clear();
    }
}

void
FileSink::onOp(const TraceOp &op)
{
    onOps(&op, 1);
}

void
FileSink::onOps(const TraceOp *ops, size_t n)
{
    if (sealed_) {
        throw std::logic_error("trace: record delivered after flush: " +
                               path_);
    }
    while (n > 0) {
        const size_t room = TraceBlock::kOps - stage_.ops.size();
        const size_t take = n < room ? n : room;
        stage_.ops.insert(stage_.ops.end(), ops, ops + take);
        ops += take;
        n -= take;
        if (stage_.ops.size() >= TraceBlock::kOps) {
            flushStage();
        }
    }
}

void
FileSink::onBranch(const BranchRecord &branch)
{
    if (sealed_) {
        throw std::logic_error("trace: record delivered after flush: " +
                               path_);
    }
    TraceBlock::Event e;
    e.pos = static_cast<uint32_t>(stage_.ops.size());
    e.kind = TraceBlock::Event::Branch;
    e.taken = branch.taken;
    e.value = branch.pc;
    stage_.events.push_back(e);
    // Branch-only streams never fill the op span; bound the event list
    // the same way so staging stays O(1).
    if (stage_.events.size() >= TraceBlock::kOps) {
        flushStage();
    }
}

void
FileSink::onKernel(uint64_t site)
{
    if (sealed_) {
        throw std::logic_error("trace: record delivered after flush: " +
                               path_);
    }
    TraceBlock::Event e;
    e.pos = static_cast<uint32_t>(stage_.ops.size());
    e.kind = TraceBlock::Event::Kernel;
    e.value = site;
    stage_.events.push_back(e);
    if (stage_.events.size() >= TraceBlock::kOps) {
        flushStage();
    }
}

void
FileSink::onBlock(TraceBlock &&block)
{
    if (sealed_) {
        throw std::logic_error("trace: record delivered after flush: " +
                               path_);
    }
    // Records staged before this block came first in program order.
    flushStage();
    writeBlock(block);
}

void
FileSink::setMetadata(std::string bytes)
{
    if (sealed_) {
        throw std::logic_error("trace: setMetadata after flush: " + path_);
    }
    metadata_ = std::move(bytes);
}

void
FileSink::flush()
{
    if (sealed_) {
        return;
    }
    if (defer_seal_) {
        flushStage();
        return;
    }
    seal();
}

void
FileSink::seal()
{
    if (sealed_) {
        return;
    }
    flushStage();
    const uint32_t end_marker = 0;
    write(&end_marker, sizeof end_marker);
    const uint32_t meta_bytes = static_cast<uint32_t>(metadata_.size());
    write(&meta_bytes, sizeof meta_bytes);
    write(metadata_.data(), metadata_.size());
    checksum_ = fnv1a64(checksum_, metadata_.data(), metadata_.size());
    write(&op_count_, sizeof op_count_);
    write(&branch_count_, sizeof branch_count_);
    write(&block_count_, sizeof block_count_);
    write(&meta_bytes, sizeof meta_bytes);
    write(&checksum_, sizeof checksum_);
    const int rc = std::fclose(file_);
    file_ = nullptr;
    sealed_ = true;
    if (rc != 0) {
        throw std::runtime_error("trace: " + path_ + ": close failed");
    }
}

// ---------------------------------------------------------------------------
// FileSource

namespace
{

struct FileCloser {
    std::FILE *f;
    ~FileCloser()
    {
        if (f != nullptr) {
            std::fclose(f);
        }
    }
};

/// Validate magic + version at the current read position (offset 0).
void
readHeader(std::FILE *f, const std::string &path)
{
    char magic[4];
    if (std::fread(magic, 1, 4, f) != 4) {
        fail(path, 0, "truncated header");
    }
    if (std::memcmp(magic, "VETF", 4) != 0) {
        if (isLegacyMagic(magic)) {
            failLegacy(path, magic);
        }
        fail(path, 0, "bad magic (not a vepro trace)");
    }
    uint32_t version = 0;
    if (std::fread(&version, 1, sizeof version, f) != sizeof version) {
        fail(path, 4, "truncated header");
    }
    if (version != kTraceFileVersion) {
        fail(path, 4,
             "unsupported version " + std::to_string(version) +
                 " (this build reads v" +
                 std::to_string(kTraceFileVersion) + ")");
    }
}

} // namespace

TraceFileInfo
FileSource::replay(TraceSink &sink) const
{
    std::FILE *f = std::fopen(path_.c_str(), "rb");
    if (f == nullptr) {
        throw std::runtime_error("trace: cannot open " + path_);
    }
    FileCloser closer{f};
    readHeader(f, path_);
    uint64_t offset = 8;
    const auto need = [&](void *p, size_t n, const char *what) {
        if (std::fread(p, 1, n, f) != n) {
            fail(path_, offset, std::string("truncated ") + what);
        }
        offset += n;
    };

    TraceFileInfo info;
    uint64_t checksum = kFnvOffset;
    std::string payload;
    TraceBlock block;
    block.reserveStandard();
    for (;;) {
        const uint64_t block_offset = offset;
        uint32_t len = 0;
        need(&len, sizeof len, "block length");
        if (len == 0) {
            break;  // end-of-blocks marker
        }
        if (len > kMaxBlockPayload) {
            fail(path_, block_offset,
                 "implausible block size " + std::to_string(len));
        }
        payload.resize(len);
        need(payload.data(), len, "block payload");
        try {
            const uint64_t sum = decodeBlock(
                reinterpret_cast<const uint8_t *>(payload.data()),
                payload.size(), checksum, block, delta_fault_);
            checksum = sum_fault_
                           ? faultySum(checksum, payload.data(), payload.size())
                           : sum;
        } catch (const std::exception &e) {
            fail(path_, block_offset, e.what());
        }
        info.opCount += block.ops.size();
        info.branchCount += countBranchEvents(block);
        ++info.blockCount;
        sink.onBlock(std::move(block));
        block.clear();  // moved-from or not: reset for reuse
        block.reserveStandard();
    }

    uint32_t meta_bytes = 0;
    need(&meta_bytes, sizeof meta_bytes, "metadata length");
    if (meta_bytes > kMaxMetadataBytes) {
        fail(path_, offset - sizeof meta_bytes,
             "implausible metadata size " + std::to_string(meta_bytes));
    }
    info.metadata.resize(meta_bytes);
    need(info.metadata.data(), meta_bytes, "metadata");
    checksum = fnv1a64(checksum, info.metadata.data(), info.metadata.size());

    const uint64_t footer_offset = offset;
    uint64_t op_count = 0;
    uint64_t branch_count = 0;
    uint64_t block_count = 0;
    uint32_t meta_bytes_again = 0;
    uint64_t want = 0;
    need(&op_count, sizeof op_count, "footer");
    need(&branch_count, sizeof branch_count, "footer");
    need(&block_count, sizeof block_count, "footer");
    need(&meta_bytes_again, sizeof meta_bytes_again, "footer");
    need(&want, sizeof want, "footer");
    if (std::fgetc(f) != EOF) {
        fail(path_, offset, "trailing bytes after footer");
    }
    if (op_count != info.opCount || branch_count != info.branchCount ||
        block_count != info.blockCount || meta_bytes_again != meta_bytes) {
        fail(path_, footer_offset,
             "footer count mismatch (footer " + std::to_string(op_count) +
                 " ops / " + std::to_string(branch_count) + " branches / " +
                 std::to_string(block_count) + " blocks, decoded " +
                 std::to_string(info.opCount) + " / " +
                 std::to_string(info.branchCount) + " / " +
                 std::to_string(info.blockCount) + ")");
    }
    if (want != checksum) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "0x%016llx, computed 0x%016llx",
                      static_cast<unsigned long long>(want),
                      static_cast<unsigned long long>(checksum));
        fail(path_, footer_offset,
             std::string("checksum mismatch (footer ") + buf +
                 ") — corrupt capture");
    }
    info.fileBytes = offset;
    return info;
}

TraceFileInfo
FileSource::inspect(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        throw std::runtime_error("trace: cannot open " + path);
    }
    FileCloser closer{f};
    readHeader(f, path);
    if (std::fseek(f, 0, SEEK_END) != 0) {
        fail(path, 8, "cannot seek");
    }
    const long size = std::ftell(f);
    // Header (8) + end marker (4) + metadata length (4) + footer (36).
    constexpr long kFooterBytes = 8 + 8 + 8 + 4 + 8;
    constexpr long kMinFile = 8 + 4 + 4 + kFooterBytes;
    if (size < kMinFile) {
        fail(path, static_cast<uint64_t>(size > 0 ? size : 0),
             "truncated file (no footer)");
    }
    TraceFileInfo info;
    info.fileBytes = static_cast<uint64_t>(size);
    std::fseek(f, size - kFooterBytes, SEEK_SET);
    uint64_t offset = static_cast<uint64_t>(size - kFooterBytes);
    const auto need = [&](void *p, size_t n, const char *what) {
        if (std::fread(p, 1, n, f) != n) {
            fail(path, offset, std::string("truncated ") + what);
        }
        offset += n;
    };
    uint32_t meta_bytes = 0;
    need(&info.opCount, sizeof info.opCount, "footer");
    need(&info.branchCount, sizeof info.branchCount, "footer");
    need(&info.blockCount, sizeof info.blockCount, "footer");
    need(&meta_bytes, sizeof meta_bytes, "footer");
    uint64_t checksum = 0;
    need(&checksum, sizeof checksum, "footer");
    if (static_cast<long>(meta_bytes) > size - kMinFile) {
        fail(path, static_cast<uint64_t>(size - kFooterBytes + 24),
             "implausible metadata size " + std::to_string(meta_bytes));
    }
    std::fseek(f, size - kFooterBytes - static_cast<long>(meta_bytes),
               SEEK_SET);
    offset = static_cast<uint64_t>(size - kFooterBytes) - meta_bytes;
    info.metadata.resize(meta_bytes);
    need(info.metadata.data(), meta_bytes, "metadata");
    return info;
}

} // namespace vepro::trace
