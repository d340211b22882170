#ifndef TIP_CLIENT_REMOTE_CONNECTION_H_
#define TIP_CLIENT_REMOTE_CONNECTION_H_

// client::Connection and client::Statement serve tipd as well as the
// embedded engine. These two names stay only because the benchmark in
// tipbench/ still spells them; they go with its next change, and
// nothing else may use them.

#include "client/connection.h"

namespace tip::client {

using RemoteConnection = Connection;
using RemoteStatement = Statement;

}  // namespace tip::client

#endif  // TIP_CLIENT_REMOTE_CONNECTION_H_
