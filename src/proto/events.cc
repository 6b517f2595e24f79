#include "proto/events.h"

#include <iterator>

namespace entrace {

const char* to_string(CifsCategory c) {
  switch (c) {
    case CifsCategory::kSmbBasic: return "SMB Basic";
    case CifsCategory::kRpcPipe: return "RPC Pipes";
    case CifsCategory::kFileSharing: return "Windows File Sharing";
    case CifsCategory::kLanman: return "LANMAN";
    case CifsCategory::kOther: return "Other";
  }
  return "?";
}

const char* to_string(DceIface i) {
  switch (i) {
    case DceIface::kNetLogon: return "NetLogon";
    case DceIface::kLsaRpc: return "LsaRPC";
    case DceIface::kSpoolss: return "Spoolss";
    case DceIface::kEpm: return "EPM";
    case DceIface::kSamr: return "Samr";
    case DceIface::kWkssvc: return "Wkssvc";
    case DceIface::kOther: return "Other";
  }
  return "?";
}

void AppEvents::merge(AppEvents&& other) {
  const auto append = [](auto& dst, auto& src) {
    dst.insert(dst.end(), std::make_move_iterator(src.begin()),
               std::make_move_iterator(src.end()));
    src.clear();
  };
  append(http, other.http);
  smtp += other.smtp;
  append(dns, other.dns);
  append(nbns, other.nbns);
  append(nbss, other.nbss);
  append(cifs, other.cifs);
  append(dcerpc, other.dcerpc);
  epm += other.epm;
  append(nfs, other.nfs);
  append(ncp, other.ncp);
}

const char* to_string(NcpFunction f) {
  switch (f) {
    case NcpFunction::kRead: return "Read";
    case NcpFunction::kWrite: return "Write";
    case NcpFunction::kFileDirInfo: return "FileDirInfo";
    case NcpFunction::kFileOpenClose: return "File Open/Close";
    case NcpFunction::kFileSize: return "File Size";
    case NcpFunction::kFileSearch: return "File Search";
    case NcpFunction::kDirectoryService: return "Directory Service";
    case NcpFunction::kOther: return "Other";
  }
  return "?";
}

}  // namespace entrace
