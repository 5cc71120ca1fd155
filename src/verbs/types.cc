#include "verbs/types.hh"

#include <cstdio>

namespace ibsim {
namespace verbs {

const char*
wrOpcodeName(WrOpcode op)
{
    switch (op) {
      case WrOpcode::Read: return "READ";
      case WrOpcode::Write: return "WRITE";
      case WrOpcode::Send: return "SEND";
      case WrOpcode::Recv: return "RECV";
      case WrOpcode::FetchAdd: return "FETCH_ADD";
      case WrOpcode::CompSwap: return "CMP_SWAP";
    }
    return "?";
}

const char*
transportName(Transport transport)
{
    switch (transport) {
      case Transport::Rc: return "RC";
      case Transport::Uc: return "UC";
      case Transport::Ud: return "UD";
    }
    return "?";
}

const char*
wcStatusName(WcStatus status)
{
    switch (status) {
      case WcStatus::Success: return "SUCCESS";
      case WcStatus::RetryExcErr: return "RETRY_EXC_ERR";
      case WcStatus::RnrRetryExcErr: return "RNR_RETRY_EXC_ERR";
      case WcStatus::RemAccessErr: return "REM_ACCESS_ERR";
      case WcStatus::WrFlushErr: return "WR_FLUSH_ERR";
      case WcStatus::LocProtErr: return "LOC_PROT_ERR";
    }
    return "?";
}

const char*
asyncEventName(AsyncEventType type)
{
    switch (type) {
      case AsyncEventType::PortActive: return "PORT_ACTIVE";
      case AsyncEventType::PortError: return "PORT_ERR";
      case AsyncEventType::PathActive: return "PATH_ACTIVE";
      case AsyncEventType::PathError: return "PATH_ERR";
      case AsyncEventType::QpFatal: return "QP_FATAL";
      case AsyncEventType::QpRecovered: return "QP_RECOVERED";
    }
    return "?";
}

std::string
AsyncEvent::str() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "event %s lid=%u peer=%u qpn=%u t=%s",
                  asyncEventName(type), lid, peerLid, qpn,
                  at.str().c_str());
    return buf;
}

std::string
WorkCompletion::str() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "wc wr_id=%llu %s %s len=%u qpn=%u t=%s",
                  static_cast<unsigned long long>(wrId),
                  wrOpcodeName(opcode), wcStatusName(status), byteLen, qpn,
                  completedAt.str().c_str());
    return buf;
}

} // namespace verbs
} // namespace ibsim
